"""LP membership, exact decomposition, thresholds, boundary data, MC sweeps."""

import math
import time

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
from netlocal.behavior import compute_IJ, mix_behaviors, uniform_behavior
from netlocal.errors import (
    NoCrossingError,
    RangeError,
    ScenarioError,
    SizeGuardError,
)
from netlocal.evaluator import evaluate_chain
from netlocal.hvmodels import behavior_of_model, sample_random_model, trial_rng
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
        u = uniform_behavior(kind, 2)
        pr = chain_pr_behavior(kind, 2)
        for w in (0.0, 0.4, 0.8, 1.0):
            b = mix_behaviors([1.0 - w, w], [u, pr])
            assert lp_local_membership(b).feasible == _scipy_feasible(b)


def test_lp_feasible_for_random_local_models():
    for kind in (KIND_P22, KIND_P14):
        model = sample_random_model(kind, 2, 3, trial_rng(8, 0))
        res = lp_local_membership(behavior_of_model(model))
        assert res.feasible and res.max_residual <= 1e-8


def test_lp_tol_validation():
    with pytest.raises(RangeError):
        lp_local_membership(uniform_behavior(KIND_P22, 2), tol=0.0)


def test_chain_pr_has_zero_IJ():
    for kind in (KIND_P22, KIND_P14):
        assert compute_IJ(chain_pr_behavior(kind, 2)) == (0.0, 0.0)


def test_decomposition_is_exact():
    for kind in (KIND_P22, KIND_P14):
        for n in (2, 3):
            report = decomposition_check(kind, n)
            assert report.exact_mixture
            assert report.ok
            assert abs(report.pi_IJ[0]) == 1 and report.pi_IJ[1] == 0
            assert report.pj_IJ[0] == 0 and abs(report.pj_IJ[1]) == 1


def test_decomposition_guards():
    with pytest.raises(RangeError):
        decomposition_check(KIND_P22, 1)
    with pytest.raises(SizeGuardError):
        decomposition_check(KIND_P22, 6)


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
    def table_IJ(scenario, sources):
        alphas = [s.alpha for s in sources]
        return compute_IJ(evaluate_chain(standard_scenario(scenario.n, scenario.kind,
                                                           alphas)))

    configs = [(kind, n, profile)
               for kind in (KIND_P22, KIND_P14) for n in range(2, 6)
               for profile in (None, [0.9] * (n - 1) + [0.8])]
    contracted = [visibility_threshold(kind, n, profile=profile)
                  for kind, n, profile in configs]
    monkeypatch.setattr(analysis, "chain_IJ", table_IJ)
    for (kind, n, profile), res in zip(configs, contracted):
        ref = visibility_threshold(kind, n, profile=profile)
        assert res.iterations == ref.iterations
        assert abs(res.scale - ref.scale) < 1e-9


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
