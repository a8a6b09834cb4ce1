"""LP membership, exact decomposition, thresholds, boundary data, MC sweeps."""

import math
import os
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy.optimize import linprog

import netlocal.analysis as analysis
from netlocal.analysis import (
    SINGLE_SOURCE_REFERENCE,
    chain_pr_behavior,
    correlated_sources_demo,
    decomposition_check,
    figure4_report,
    lp_local_membership,
    mc_local_mixture_sweep,
    mc_nlocal_sweep,
    monte_carlo_bound_suite,
    strategy_behavior_matrix,
    visibility_threshold,
)
from netlocal.behavior import (Behavior, alphabets, compute_IJ, mix_behaviors,
                               uniform_behavior)
from netlocal.errors import (
    NoCrossingError,
    RangeError,
    ScenarioError,
    SizeGuardError,
)
from netlocal import evaluator, hvmodels, qlin
from netlocal.evaluator import closed_form_p14, closed_form_p22_end_parity, evaluate_chain
from netlocal.hvmodels import (behavior_of_model, decomposition_model, party_strategy_table,
                               sample_random_model, trial_rng)
from netlocal.network import KIND_P14, KIND_P22, standard_scenario


def _scipy_feasible(b):
    D = strategy_behavior_matrix(b.kind, b.n)
    A = D.reshape(D.shape[0], -1).T
    res = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=b.table.reshape(-1),
                  bounds=[(0, None)] * A.shape[1], method="highs")
    return res.status == 0


def test_lp_quantum_points_are_local():
    for kind in (KIND_P22, KIND_P14):
        b = evaluate_chain(standard_scenario(2, kind))
        res = lp_local_membership(b)
        assert res.feasible and res.max_residual <= 1e-8
        assert res.weights is not None and res.weights.min() >= -1e-12
        # the witness reconstructs the table
        D = strategy_behavior_matrix(kind, 2)
        A = D.reshape(D.shape[0], -1).T
        assert np.abs(A @ res.weights - b.table.reshape(-1)).max() <= 1e-8


def test_lp_chain_pr_is_nonlocal():
    for kind in (KIND_P22, KIND_P14):
        res = lp_local_membership(chain_pr_behavior(kind, 2))
        assert not res.feasible
        assert res.phase1_objective > 1e-3
        assert res.weights is None


def test_lp_matches_scipy_verdicts():
    # walk the segment uniform -> chain-PR; feasibility flips along the way
    for kind in (KIND_P22, KIND_P14):
        for n in (2, 3):
            u = uniform_behavior(kind, n)
            pr = chain_pr_behavior(kind, n)
            for w in (0.0, 0.4, 0.8, 1.0):
                b = mix_behaviors([1.0 - w, w], [u, pr])
                assert lp_local_membership(b).feasible == _scipy_feasible(b), (kind, n, w)


def test_kept_rows_span_the_equality_system():
    for kind in (KIND_P22, KIND_P14):
        for n in (2, 3):
            keep = analysis._kept_rows(kind, n)
            expected = 3 ** (n + 1) if kind == KIND_P22 else 9 * 4 ** (n - 1)
            D = strategy_behavior_matrix(kind, n)
            A = D.reshape(D.shape[0], -1).T
            assert len(keep) == expected
            assert np.linalg.matrix_rank(A[keep]) == expected
            assert np.linalg.matrix_rank(A) == expected


def test_lp_signalling_behavior_is_infeasible():
    # party 1 outputs x_last; parties 0 and 2 output uniform bits
    digits = np.indices((2, 2, 2)).reshape(3, -1)
    copies = Behavior(KIND_P22, 2, 0.25 * (digits[2][:, None] == digits[1][None, :]))
    # mass moved between two dropped cells of input (1, 0, 0): the kept
    # rows still read the uniform behavior, so only the residual sees it
    shifted = uniform_behavior(KIND_P22, 2).table.copy()
    shifted[4, 4:6] += (0.1, -0.1)
    hidden = Behavior(KIND_P22, 2, shifted)
    for b in (copies, hidden):
        res = lp_local_membership(b)
        assert not res.feasible
        assert res.max_residual > res.tol
        assert res.weights is None
    assert lp_local_membership(hidden).phase1_objective <= 1e-11


def test_phase1_stops_at_zero_violation():
    keep = analysis._kept_rows(KIND_P22, 2)
    D = strategy_behavior_matrix(KIND_P22, 2)
    A = D.reshape(D.shape[0], -1).T[keep]
    q, objective, iterations = analysis._phase1_simplex(A, np.zeros(len(keep)), 1e-11)
    assert iterations == 0
    assert objective == 0.0 and not q.any()


def _full_pivot(T, r, j):
    """Reference for analysis._pivot: the full-tableau update, every row
    but r changed."""
    T[r] /= T[r, j]
    rows = np.arange(len(T)) != r
    T[rows] -= np.outer(T[rows, j], T[r])


def test_row_sparse_pivot_walks_like_the_full_tableau(monkeypatch):
    cases = []
    for kind in (KIND_P22, KIND_P14):
        for n in (2, 3):
            pr = chain_pr_behavior(kind, n)
            noise = uniform_behavior(kind, n)
            quantum = evaluate_chain(standard_scenario(n, kind))
            # local and nonlocal: PR box plus white noise is local iff w <= 1/2
            cases += [quantum, pr, mix_behaviors([0.3, 0.7], [pr, noise]),
                      mix_behaviors([0.8, 0.2], [pr, noise])]
    for behavior in cases:
        kind, n, table = behavior.kind, behavior.n, behavior.table
        keep = analysis._kept_rows(kind, n)
        D = strategy_behavior_matrix(kind, n)
        A, b = D.reshape(D.shape[0], -1).T[keep], table.reshape(-1)[keep]
        q, objective, iterations = analysis._phase1_simplex(A, b, 1e-11)
        with monkeypatch.context() as m:
            m.setattr(analysis, "_pivot", _full_pivot)
            q_ref, objective_ref, iterations_ref = analysis._phase1_simplex(A, b, 1e-11)
        assert iterations == iterations_ref > 0
        assert objective == objective_ref
        assert np.array_equal(q, q_ref)


def test_lp_size_guard_refuses_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the guard must come before any table")

    monkeypatch.setattr(analysis, "party_strategy_table", refuse)
    for kind in (KIND_P22, KIND_P14):
        for n in (5, 8, 40):
            with pytest.raises(SizeGuardError):
                strategy_behavior_matrix(kind, n)


def test_lp_feasible_for_random_local_models():
    for kind in (KIND_P22, KIND_P14):
        model = sample_random_model(kind, 2, 3, trial_rng(8, 0))
        res = lp_local_membership(behavior_of_model(model))
        assert res.feasible and res.max_residual <= 1e-8


def test_lp_tol_validation():
    for tol in (0.0, float("nan")):
        with pytest.raises(RangeError):
            lp_local_membership(uniform_behavior(KIND_P22, 2), tol=tol)


def test_chain_pr_has_zero_IJ():
    for kind in (KIND_P22, KIND_P14):
        assert compute_IJ(chain_pr_behavior(kind, 2)) == (0.0, 0.0)


def test_lp_tables_match_their_definitions():
    for kind in (KIND_P22, KIND_P14):
        for n in (2, 3):
            ins, outs = alphabets(kind, n)
            pr = chain_pr_behavior(kind, n).table
            mid_cells = math.prod(outs[1:-1])
            for xi, xs in enumerate(np.ndindex(*ins)):
                for ai, av in enumerate(np.ndindex(*outs)):
                    ok = (av[0] ^ av[-1]) == (xs[0] & xs[-1])
                    assert pr[xi, ai] == ok / (2.0 * mid_cells)
            # D[s, x, a] is the product of the party tables, row-major
            tables = [party_strategy_table(kind, n, p) for p in range(n + 1)]
            D = tables[0]
            for t in tables[1:]:
                D = np.einsum("SXA,sxa->SsXxAa", D, t).reshape(
                    D.shape[0] * t.shape[0], D.shape[1] * t.shape[1], -1)
            assert np.array_equal(strategy_behavior_matrix(kind, n), D)


def _reference_decomposition(kind, n):
    """(P_Q, P_I, P_J) of the analytic decomposition as Fraction dicts keyed
    (xs, outs), in the reference convention: the definition the models of
    decomposition_model must reproduce."""
    ins, outs = alphabets(kind, n)
    pq, pi, pj = {}, {}, {}
    for xs in product(*[range(k) for k in ins]):
        for av in product(*[range(k) for k in outs]):
            if kind == KIND_P14:
                s = (-1) ** (av[0] + av[-1] + 1)
                z = (-1) ** sum(m >> 1 for m in av[1:-1])
                w = (-1) ** (sum(m & 1 for m in av[1:-1]) + xs[0] + xs[-1])
                denom = 4 ** n
            else:
                s = (-1) ** (sum(av) + 1)
                z = 1 if all(x == 0 for x in xs[1:-1]) else 0
                w = ((-1) ** (xs[0] + xs[-1])) if all(x == 1 for x in xs[1:-1]) else 0
                denom = 2 ** (n + 1)
            pq[xs, av] = Fraction(2 + s * z + s * w, 2 * denom)
            pi[xs, av] = Fraction(1 + s * z, denom)
            pj[xs, av] = Fraction(1 + s * w, denom)
    return pq, pi, pj


def _fraction_rows(b):
    """The rows of b that analysis._exact_IJ reads (all intermediate inputs
    equal) as exact Fractions keyed (xs, outs); a dyadic float converts
    exactly."""
    ins, outs = alphabets(b.kind, b.n)
    cells = {}
    for xs in product(*map(range, ins)):
        if len(set(xs[1:-1])) == 1:
            row = b.table[b.input_index(xs)].tolist()
            cells.update(((xs, av), Fraction(v)) for av, v in zip(product(*map(range, outs)), row))
    return cells


def test_decomposition_models_match_reference_tables():
    for kind in (KIND_P22, KIND_P14):
        for n in (2, 3, 4, 5):
            ins, outs = alphabets(kind, n)
            reference = _reference_decomposition(kind, n)
            tables = [closed_form_p22_end_parity(n) if kind == KIND_P22 else closed_form_p14(n)]
            tables += [behavior_of_model(decomposition_model(kind, n, which)) for which in (0, 1)]
            for ref, b in zip(reference, tables):
                want = np.array([[float(ref[xs, av]) for av in product(*map(range, outs))]
                                 for xs in product(*map(range, ins))])
                assert np.array_equal(b.table, want), (kind, n)


def test_decomposition_is_exact():
    for kind in (KIND_P22, KIND_P14):
        for n in range(2, 9):
            report = decomposition_check(kind, n)
            assert report.exact_mixture
            assert report.ok
            assert abs(report.pi_IJ[0]) == 1 and report.pi_IJ[1] == 0
            assert report.pj_IJ[0] == 0 and abs(report.pj_IJ[1]) == 1
            # the Fraction oracle on the model tables agrees exactly; it is
            # pure Python, and p14 n = 7, 8 would cost it about 10 s more
            if kind == KIND_P14 and n > 6:
                continue
            for which, got in ((0, report.pi_IJ), (1, report.pj_IJ)):
                b = behavior_of_model(decomposition_model(kind, n, which))
                assert analysis._exact_IJ(kind, n, _fraction_rows(b)) == got, (kind, n)


def test_decomposition_guards():
    with pytest.raises(RangeError):
        decomposition_check(KIND_P22, 1)
    for kind in (KIND_P22, KIND_P14):
        with pytest.raises(SizeGuardError):
            decomposition_check(kind, 12)


def test_threshold_equal_profile():
    res = visibility_threshold(KIND_P22, 2)
    assert abs(res.product - 0.5) < 1e-6
    assert abs(res.value_at_threshold - 1.0) < 1e-6
    assert res.alphas == [res.scale, res.scale]
    assert res.single_source_reference == SINGLE_SOURCE_REFERENCE
    assert abs(SINGLE_SOURCE_REFERENCE - 1.0 / math.sqrt(2.0)) < 1e-15


def test_threshold_custom_profile_scales_first_source():
    profile = [0.9, 0.9]
    res = visibility_threshold(KIND_P14, 2, profile=profile)
    assert abs(res.product - 0.5) < 1e-6
    assert res.alphas[1] == 0.9
    assert abs(res.alphas[0] - 0.9 * res.scale) < 1e-15


def test_threshold_requires_violation_at_full_visibility():
    with pytest.raises(NoCrossingError):
        visibility_threshold(KIND_P22, 2, profile=[0.6, 0.6])
    # the linear bound is met with equality by these points, never crossed
    with pytest.raises(NoCrossingError):
        visibility_threshold(KIND_P22, 2, bound="local")


def test_threshold_validation():
    with pytest.raises(RangeError):
        visibility_threshold(KIND_P22, 2, bound="both")
    with pytest.raises(ScenarioError):
        visibility_threshold(KIND_P22, 3, profile=[0.9, 0.9])
    with pytest.raises(RangeError):
        visibility_threshold(KIND_P22, 2, profile=[0.9, 1.1])


def test_threshold_beyond_any_table():
    # 4**40 cells: only the chain contraction can reach this size
    t0 = time.perf_counter()
    for kind in (KIND_P22, KIND_P14):
        res = visibility_threshold(kind, 40)
        assert abs(res.product - 0.5) < 1e-6
        assert abs(res.value_at_threshold - 1.0) < 1e-6
    assert time.perf_counter() - t0 < 2.0


def test_threshold_matches_table_route(monkeypatch):
    """The search through werner_IJ against the same search with the table
    route injected at its seam: one full table per visibility profile."""
    calls = []

    def table_route(scenario):
        def IJ(alphas):
            calls.append(alphas)
            return compute_IJ(evaluate_chain(standard_scenario(scenario.n, scenario.kind,
                                                               alphas)))
        return IJ

    configs = [(kind, n, profile)
               for kind in (KIND_P22, KIND_P14) for n in range(2, 6)
               for profile in (None, [0.9] * (n - 1) + [0.8])]
    contracted = [visibility_threshold(kind, n, profile=profile)
                  for kind, n, profile in configs]
    monkeypatch.setattr(analysis, "werner_IJ", table_route)
    for (kind, n, profile), res in zip(configs, contracted):
        calls.clear()
        ref = visibility_threshold(kind, n, profile=profile)
        # the bracket ends, every step and the reported value
        assert len(calls) == ref.iterations + 2
        assert res.iterations == ref.iterations
        assert abs(res.scale - ref.scale) < 1e-9
        assert abs(res.value_at_threshold - ref.value_at_threshold) < 1e-12


def test_threshold_validates_no_source_per_step(monkeypatch):
    """Sources are validated, and transfer tensors built, a fixed number of
    times per search, however many bisection steps it takes."""
    counts = {"density": 0, "transfer": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(qlin, "is_density_operator",
                        counted("density", qlin.is_density_operator))
    monkeypatch.setattr(evaluator, "_transfer_tensors",
                        counted("transfer", evaluator._transfer_tensors))
    default = analysis.BISECTION_WIDTH
    for kind in (KIND_P22, KIND_P14):
        seen = set()
        for width in (1e-2, default):
            monkeypatch.setattr(analysis, "BISECTION_WIDTH", width)
            counts.update(density=0, transfer=0)
            res = visibility_threshold(kind, 6, profile=[0.95] * 6)
            # n scenario sources and the two end states of werner_IJ
            assert counts == {"density": 6 + 2, "transfer": 2}
            seen.add(res.iterations)
        assert len(seen) == 2


def test_figure4_report_contents():
    report = figure4_report(KIND_P22, 2, grid_step=0.25)
    assert abs(report["quantum_point"]["nlocal_value"] - math.sqrt(2.0)) < 1e-9
    assert report["pi_point"] == {"I": -1.0, "J": 0.0}
    assert report["pj_point"] == {"I": 0.0, "J": -1.0}
    for row in report["tightness_curve"]:
        assert abs(row["I"] - row["r"] ** 2) < 1e-12
        assert abs(row["J"] - (1.0 - row["r"]) ** 2) < 1e-12
    for row in report["nlocal_boundary"]:
        assert abs(math.sqrt(abs(row["I"])) + math.sqrt(abs(row["J"])) - 1.0) < 1e-12
    for row in report["local_boundary"]:
        assert abs(abs(row["I"]) + abs(row["J"]) - 1.0) < 1e-12
    with pytest.raises(RangeError):
        figure4_report(KIND_P22, 2, grid_step=0.0)


def test_mc_nlocal_sweep_is_deterministic_across_workers():
    one = mc_nlocal_sweep(KIND_P22, 2, 2, 400, seed=3, workers=1)
    two = mc_nlocal_sweep(KIND_P22, 2, 2, 400, seed=3, workers=2)
    assert one == two
    assert one["bound_satisfied"]
    assert one["max_nlocal_value"] <= 1.0 + 1e-9


# (kind, n, K, seed, max_nlocal_value, argmax_trial) over 200 trials, and
# (kind, n, seed, max_local_value, argmax_trial) over 200 trials, computed
# with the per-kind sign tables that preceded behavior.ij_factors.
FROZEN_NLOCAL_SWEEPS = [
    ("p22", 2, 1, 11, 0.8650116814432296, 126),
    ("p22", 3, 3, 12, 0.5230973769702936, 195),
    ("p22", 4, 2, 13, 0.41067298255342904, 126),
    ("p14", 2, 4, 14, 0.5174292541733899, 7),
    ("p14", 3, 2, 15, 0.49396270511103846, 192),
    ("p14", 4, 3, 16, 0.22515090675899016, 118),
]
FROZEN_MIXTURE_SWEEPS = [
    ("p22", 2, 22, 0.25883803981844977, 160),
    ("p22", 3, 23, 0.11351967946546378, 99),
    ("p22", 4, 24, 0.0658591617261825, 59),
    ("p14", 2, 32, 0.26536049027992303, 49),
    ("p14", 3, 33, 0.14160371923762421, 135),
    ("p14", 4, 34, 0.06754895978754508, 37),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind,n,k,seed,value,trial", FROZEN_NLOCAL_SWEEPS)
def test_mc_nlocal_sweep_frozen_values(kind, n, k, seed, value, trial, workers):
    res = mc_nlocal_sweep(kind, n, k, 200, seed, workers=workers)
    assert abs(res["max_nlocal_value"] - value) <= 1e-15
    assert res["argmax_trial"] == trial


@pytest.mark.parametrize("kind,n,seed,value,trial", FROZEN_MIXTURE_SWEEPS)
def test_mc_local_mixture_sweep_frozen_values(kind, n, seed, value, trial):
    res = mc_local_mixture_sweep(kind, n, 200, seed)
    assert abs(res["max_local_value"] - value) <= 1e-15
    assert res["argmax_trial"] == trial


@pytest.mark.parametrize("budget", [1, 500])
def test_mc_sweeps_do_not_depend_on_the_block_size(monkeypatch, budget):
    cases = [(KIND_P22, 3, 2, 5), (KIND_P14, 4, 3, 6)]
    default = [mc_nlocal_sweep(kind, n, k, 300, seed) for kind, n, k, seed in cases]
    mixtures = [mc_local_mixture_sweep(kind, n, 300, seed) for kind, n, _, seed in cases]
    monkeypatch.setattr(hvmodels, "MC_BLOCK_CELLS", budget)
    assert default == [mc_nlocal_sweep(kind, n, k, 300, seed) for kind, n, k, seed in cases]
    # the mixture values are one BLAS product per block, whose summation
    # order may follow the block's row count in the last bit
    for (kind, n, _, seed), ref in zip(cases, mixtures):
        res = mc_local_mixture_sweep(kind, n, 300, seed)
        assert abs(res["max_local_value"] - ref["max_local_value"]) <= 1e-15
        assert res["argmax_trial"] == ref["argmax_trial"]


def test_mc_sweeps_refuse_a_negative_seed_before_any_draw(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be hashed, drawn or started")

    monkeypatch.setattr(hvmodels, "_trial_words", refuse)
    monkeypatch.setattr(hvmodels, "_trial_draws", refuse)
    monkeypatch.setattr(analysis.concurrent.futures, "ProcessPoolExecutor", refuse)
    for sweep in (lambda: mc_nlocal_sweep(KIND_P22, 2, 2, 10, seed=-1),
                  lambda: mc_nlocal_sweep(KIND_P14, 3, 2, 10, seed=-1, workers=2),
                  lambda: mc_local_mixture_sweep(KIND_P22, 2, 10, seed=-1)):
        with pytest.raises(RangeError):
            sweep()


def test_best_trial_ties_go_to_the_earliest_trial():
    blocks = [(0, np.array([1.0, 3.0, 3.0])), (3, np.array([3.0, 2.0]))]
    assert analysis._best_trial(blocks) == (3.0, 1)


def test_mc_sweep_peak_allocation_stays_within_the_block_budget():
    # unblocked, each of these sweeps would hold over 90x the budget at once
    budget_bytes = hvmodels.MC_BLOCK_CELLS * 8
    for sweep in (lambda: mc_nlocal_sweep(KIND_P22, 4, 4, 3000, seed=1),
                  lambda: mc_local_mixture_sweep(KIND_P14, 4, 1500, seed=1)):
        sweep()  # strategy tables and imports first
        tracemalloc.start()
        try:
            sweep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * budget_bytes, peak / budget_bytes


def test_mc_nlocal_pool_is_no_larger_than_jobs_or_cpus(monkeypatch):
    sizes, job_counts = [], []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, runs jobs inline."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            jobs = list(jobs)
            job_counts.append(len(jobs))
            return map(fn, jobs)

    monkeypatch.setattr(analysis.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for trials, workers in ((2, 4), (3, 10_000)):
        res = mc_nlocal_sweep(KIND_P22, 2, 2, trials, seed=3, workers=workers)
        assert res == mc_nlocal_sweep(KIND_P22, 2, 2, trials, seed=3, workers=1)
    assert job_counts == [2, 3]
    assert sizes == [min(2, os.cpu_count() or 1), min(3, os.cpu_count() or 1)]


def test_mc_local_mixture_sweep_respects_bound():
    res = mc_local_mixture_sweep(KIND_P14, 2, 500, seed=1)
    assert res["bound_satisfied"]
    again = mc_local_mixture_sweep(KIND_P14, 2, 500, seed=1)
    assert res == again
    with pytest.raises(RangeError):
        mc_local_mixture_sweep(KIND_P14, 2, 0, seed=1)


def test_correlated_sources_demo_violates():
    demo = correlated_sources_demo()
    assert abs(demo["mixture_nlocal_value"] - math.sqrt(2.0)) < 1e-12
    assert demo["exceeds_nlocal_bound"]
    assert demo["factorization_violations"]["worst"] > 0.01


def test_bound_suite_smoke():
    suite = monte_carlo_bound_suite(ns=(2,), cardinalities=(2,), trials=50,
                                      seed=0, mixture_ns=(2,))
    assert suite["all_bounds_satisfied"]
    assert len(suite["nlocal_sweeps"]) == 2  # both kinds
    assert len(suite["local_mixture_sweeps"]) == 2
