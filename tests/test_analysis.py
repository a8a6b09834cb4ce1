"""LP membership, exact decomposition, thresholds, boundary data, MC sweeps."""

import json
import math
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace

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
from netlocal import errors, evaluator, hvmodels, network, qlin
from netlocal.evaluator import closed_form_p14, closed_form_p22_end_parity, evaluate_chain
from netlocal.hvmodels import (behavior_of_model, decomposition_model, party_strategy_table,
                               sample_random_model, trial_rng)
from netlocal.network import KIND_P14, KIND_P22, standard_scenario


def _scipy_feasible(b):
    """HiGHS on the full equality system A q = table, q >= 0, with A the
    Kronecker product of the party tables as a sparse matrix: its rows run
    over (x_0, a_0, x_1, a_1, ...), so the table is permuted to match."""
    import scipy.sparse as sp
    n = b.n
    A = sp.csr_matrix(np.ones((1, 1)))
    for p in range(n + 1):
        t = party_strategy_table(b.kind, n, p)
        A = sp.kron(A, sp.csr_matrix(t.reshape(len(t), -1).T), format="csr")
    ins, outs = alphabets(b.kind, n)
    order = [axis for p in range(n + 1) for axis in (p, n + 1 + p)]
    rhs = b.table.reshape(ins + outs).transpose(order).reshape(-1)
    res = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=rhs, bounds=(0, None), method="highs")
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
    cases = [(kind, n, (0.0, 0.4, 0.8, 1.0)) for kind in (KIND_P22, KIND_P14) for n in (2, 3)]
    # p14 n = 4 solves in about 0.1 s; p22 n = 4 takes seconds, too slow here
    for kind, n, ws in cases + [(KIND_P14, 4, (0.4, 0.8))]:
        u = uniform_behavior(kind, n)
        pr = chain_pr_behavior(kind, n)
        for w in ws:
            b = mix_behaviors([1.0 - w, w], [u, pr])
            assert lp_local_membership(b).feasible == _scipy_feasible(b), (kind, n, w)
    quantum = evaluate_chain(standard_scenario(4, KIND_P14))
    assert lp_local_membership(quantum).feasible == _scipy_feasible(quantum)
    # known verdicts, up to p14 n = 5, the first size a single strategy
    # matrix refuses: seeded quantum chains are local, and PR box plus white
    # noise is local iff the PR weight is at most 1/2
    rng = np.random.default_rng(22)
    for kind, n in [(KIND_P14, n) for n in (2, 3, 4, 5)] + [(KIND_P22, n) for n in (2, 3)]:
        pr, noise = chain_pr_behavior(kind, n), uniform_behavior(kind, n)
        chain = evaluate_chain(standard_scenario(n, kind, rng.uniform(0.5, 1.0, size=n)))
        expected = [(chain, True),
                    (pr, False),
                    (mix_behaviors([0.55, 0.45], [noise, pr]), True),
                    (mix_behaviors([0.45, 0.55], [noise, pr]), False)]
        for b, local in expected:
            assert lp_local_membership(b).feasible is local is _scipy_feasible(b), (kind, n, local)


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


def _full_pivot(T, r, col):
    """Reference for analysis._pivot: the full-tableau update, every row
    but r changed."""
    T[r] /= col[r]
    rows = np.arange(len(T)) != r
    T[rows] -= np.outer(col[rows], T[r])


def _column_scan_row(T, cand, col):
    """Reference for analysis._lexicographic_row: the column-by-column scan
    it replaced, one column's scaled entries at a time."""
    for c in range(T.shape[1]):
        v = T[cand, c] / col[cand]
        cand = cand[v <= v.min() + 1e-12]
        if cand.size == 1:
            break
    return int(cand[0])


def _walk_cases():
    cases = []
    for kind in (KIND_P22, KIND_P14):
        for n in (2, 3):
            pr = chain_pr_behavior(kind, n)
            noise = uniform_behavior(kind, n)
            quantum = evaluate_chain(standard_scenario(n, kind))
            # local and nonlocal: PR box plus white noise is local iff w <= 1/2
            cases += [quantum, pr, mix_behaviors([0.3, 0.7], [pr, noise]),
                      mix_behaviors([0.8, 0.2], [pr, noise])]
    return cases


def _assert_same_walk(monkeypatch, behavior, name, reference):
    """Phase 1 on the behavior's kept rows, with analysis.<name> and with
    the reference in its place, walks the same pivots to the same point."""
    kind, n, table = behavior.kind, behavior.n, behavior.table
    keep = analysis._kept_rows(kind, n)
    D = strategy_behavior_matrix(kind, n)
    A, b = D.reshape(D.shape[0], -1).T[keep], table.reshape(-1)[keep]
    q, objective, iterations = analysis._phase1_simplex(A, b, 1e-11)
    with monkeypatch.context() as m:
        m.setattr(analysis, name, reference)
        q_ref, objective_ref, iterations_ref = analysis._phase1_simplex(A, b, 1e-11)
    assert iterations == iterations_ref > 0
    assert objective == objective_ref
    assert np.array_equal(q, q_ref)


def test_row_sparse_pivot_walks_like_the_full_tableau(monkeypatch):
    for behavior in _walk_cases():
        _assert_same_walk(monkeypatch, behavior, "_pivot", _full_pivot)


@pytest.mark.parametrize("dense", [0, 10, 11, 40])
def test_pivot_matches_the_full_update_on_both_sides_of_a_quarter(dense):
    # 41 rows: a column with more than 10 other nonzero rows takes the
    # whole-tableau update, one with at most 10 the row-gathered one
    rng = np.random.default_rng(dense)
    T = rng.standard_normal((41, 30))
    r, j = 7, 12
    others = np.delete(np.arange(41), r)
    T[rng.permutation(others)[dense:], j] = 0.0
    assert np.count_nonzero(T[others, j]) == dense
    ref = T.copy()
    analysis._pivot(T, r, T[:, j])
    _full_pivot(ref, r, ref[:, j])
    assert np.array_equal(T, ref)


def test_lexicographic_tie_break_walks_like_the_column_scan(monkeypatch):
    cases = _walk_cases() + [evaluate_chain(standard_scenario(4, KIND_P14)),
                             chain_pr_behavior(KIND_P14, 4)]
    for behavior in cases:
        _assert_same_walk(monkeypatch, behavior, "_lexicographic_row", _column_scan_row)


def test_lexicographic_tie_break_on_hand_built_tableaux():
    col = np.array([1.0, 2.0, 0.5, 4.0, 1.0])
    # scaled rows T[i] / col[i]: the candidates tie on columns 0-2 (row 3
    # within 1e-12), then column 3 drops row 1 and column 5 picks row 3
    scaled = np.array([
        [9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0],
        [1.0, 0.0, 2.0, 5.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 2.0, 3.0, 7.0, 1.0, 0.0],
        [1.0, 1e-13, 2.0, 3.0, 7.0, 0.5, 9.0],
        [1.0, 0.0, 2.0, 3.0, 7.0, 2.0, 0.0],
    ])
    T = scaled * col[:, None]
    cand = np.array([1, 2, 3, 4])
    assert analysis._lexicographic_row(T, cand, col) == 3
    assert _column_scan_row(T, cand, col) == 3
    # two candidates: rows 2 and 3 tie within 1e-12 up to column 5; column 3
    # splits rows 1 and 2, and column 5 rows 3 and 4, in either order
    for pair, row in (([2, 3], 3), ([3, 2], 3), ([1, 2], 2), ([2, 1], 2), ([4, 3], 3)):
        assert analysis._lexicographic_row(T, np.array(pair), col) == row
        assert _column_scan_row(T, np.array(pair), col) == row
    # rows equal after scaling on every column: the first candidate wins
    T = np.outer(col, [1.0, -2.0, 0.0, 3.5])
    for cand in (np.array([1, 2, 4]), np.array([0, 3])):
        assert analysis._lexicographic_row(T, cand, col) == cand[0]
        assert _column_scan_row(T, cand, col) == cand[0]


def _full_tableau_phase1(A, b, stop):
    """Reference for analysis._phase1_simplex: the walk before it dropped
    the s- block, on the whole tableau [q, s+, s-, rhs] with the cost row
    as its last row, with row-gathered np.outer pivots and the column scan."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, nv = A.shape
    flip = b < 0
    A = np.where(flip[:, None], -A, A)
    b = np.where(flip, -b, b)

    ncols = nv + 2 * m
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :nv] = A
    T[:m, nv:nv + m] = np.eye(m)
    T[:m, nv + m:ncols] = -np.eye(m)
    T[:m, ncols] = b
    basis = np.arange(nv, nv + m)
    T[m] = -T[:m].sum(axis=0)
    T[m, nv:ncols] += 1.0

    max_iter = 2000 * (m + nv)
    it = 0
    while it < max_iter and -T[m, ncols] > stop:
        red = T[m, :ncols]
        j = int(np.argmin(red))
        if red[j] >= -analysis._PIVOT_EPS:
            break
        col = T[:m, j]
        pos = col > analysis._PIVOT_EPS
        if not pos.any():
            break
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:m, ncols][pos] / col[pos]
        cand = np.nonzero(ratios <= ratios.min() + 1e-12)[0]
        r = int(cand[0]) if cand.size == 1 else _column_scan_row(T, cand, col)
        T[r] /= T[r, j]
        c = T[:, j].copy()
        c[r] = 0.0
        rows = np.flatnonzero(c)
        T[rows] -= np.outer(c[rows], T[r])
        basis[r] = j
        it += 1

    q = np.zeros(nv)
    in_q = basis < nv
    q[basis[in_q]] = T[:m, ncols][in_q]
    return q, float(-T[m, ncols]), it


def _kept_system(behavior):
    keep = analysis._kept_rows(behavior.kind, behavior.n)
    D = strategy_behavior_matrix(behavior.kind, behavior.n)
    return D.reshape(D.shape[0], -1).T[keep], behavior.table.reshape(-1)[keep]


def test_stored_tableau_walks_like_the_full_tableau():
    cases = _walk_cases() + [evaluate_chain(standard_scenario(4, KIND_P14)),
                             chain_pr_behavior(KIND_P14, 4)]
    for behavior in cases:
        A, b = _kept_system(behavior)
        q, objective, iterations = analysis._phase1_simplex(A, b, 1e-11)
        q_ref, objective_ref, iterations_ref = _full_tableau_phase1(A, b, 1e-11)
        assert iterations == iterations_ref > 0
        assert objective == objective_ref
        assert q.tobytes() == q_ref.tobytes()


def _concatenated_cost_row_phase1(A, b, stop):
    """Reference for analysis._phase1_simplex: the loop before the leaner
    pivot, with the objective as the cost row's last entry, the cost-row
    update formed by np.concatenate plus a negation, the ratio test over
    every row, and the dense pivot assigned back onto the tableau."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    m, nv = A.shape
    flip = b < 0
    T = np.zeros((m, nv + m + 1))
    T[:, :nv] = np.where(flip[:, None], -A, A)
    T[:, nv:-1] = np.eye(m)
    T[:, -1] = np.where(flip, -b, b)
    basis = np.arange(nv, nv + m)
    sums = -T.sum(axis=0)
    R = np.concatenate([sums[:nv], np.zeros(m), np.full(m, 2.0), sums[-1:]])
    max_iter, it = 2000 * (m + nv), 0
    while it < max_iter and -R[-1] > stop:
        j = int(R[:-1].argmin())
        if R[j] >= -analysis._PIVOT_EPS:
            break
        col = T[:, j] if j < nv + m else -T[:, j - m]
        pos = col > analysis._PIVOT_EPS
        if not pos.any():
            break
        ratios = np.divide(T[:, -1], col, out=np.full(m, np.inf), where=pos)
        cand = (ratios <= ratios.min() + 1e-12).nonzero()[0]
        r = int(cand[0]) if cand.size == 1 else analysis._lexicographic_row(T, cand, col)
        T[r] /= col[r]
        c = col.copy()
        c[r] = 0.0
        rows = c.nonzero()[0]
        sel = slice(None) if 4 * rows.size > len(T) - 1 else rows
        T[sel] -= np.einsum("i,j->ij", c[sel], T[r])
        R -= R[j] * np.concatenate([T[r, :-1], -T[r, nv:-1], T[r, -1:]])
        basis[r] = j
        it += 1
    q = np.zeros(nv)
    q[basis[basis < nv]] = T[basis < nv, -1]
    return q, float(-R[-1]), it


def test_leaner_loop_walks_like_the_concatenated_cost_row():
    cases = [b for b in _walk_cases() if b.kind == KIND_P22]
    noise, pr = uniform_behavior(KIND_P22, 3), chain_pr_behavior(KIND_P22, 3)
    cases += [evaluate_chain(standard_scenario(3, KIND_P22, [0.9, 0.7, 0.8])),
              mix_behaviors([0.45, 0.55], [noise, pr])]
    for behavior in cases:
        A, b = _kept_system(behavior)
        q, objective, iterations = analysis._phase1_simplex(A, b, 1e-11)
        q_ref, objective_ref, iterations_ref = _concatenated_cost_row_phase1(A, b, 1e-11)
        assert iterations == iterations_ref > 0
        assert objective == objective_ref
        assert q.tobytes() == q_ref.tobytes()


def test_walks_pivot_on_derived_s_minus_columns(monkeypatch):
    derived = []
    pivot = analysis._pivot

    def spy(T, r, col):
        if not np.shares_memory(col, T):
            # a derived column is the negation of one stored s+ column
            m = len(T)
            s_plus = T[:, T.shape[1] - m - 1:-1]
            assert (s_plus == -col[:, None]).all(axis=0).any()
            derived.append(r)
        pivot(T, r, col)

    monkeypatch.setattr(analysis, "_pivot", spy)
    for behavior in _walk_cases()[:4]:
        analysis._phase1_simplex(*_kept_system(behavior), 1e-11)
    assert derived


def test_lp_matrices_are_cached_read_only_and_equal_a_fresh_build():
    for kind in (KIND_P22, KIND_P14):
        for n in (2, 3):
            analysis._lp_matrices.cache_clear()
            b = chain_pr_behavior(kind, n)
            cold = lp_local_membership(b)
            lp = analysis._lp_matrices(kind, n)
            warm = lp_local_membership(b)
            assert analysis._lp_matrices(kind, n) is lp
            D = strategy_behavior_matrix(kind, n)
            fresh_A = D.reshape(D.shape[0], -1).T
            fresh_keep = analysis._kept_rows(kind, n)
            # the blocks tile A: each is `full` at its cells and tuples, and
            # A is zero outside them
            tiled = np.zeros_like(fresh_A)
            for cells, tuples in zip(lp.cells, lp.tuples):
                tiled[np.ix_(cells, tuples)] = lp.full
            assert np.array_equal(tiled, fresh_A)
            assert np.array_equal(np.sort(lp.cells, axis=None), np.arange(fresh_A.shape[0]))
            assert np.array_equal(np.sort(lp.tuples, axis=None), np.arange(fresh_A.shape[1]))
            assert np.array_equal(np.sort(lp.kept_cells, axis=None), fresh_keep)
            for cells, kept_cells in zip(lp.cells, lp.kept_cells):
                assert np.array_equal(lp.kept, lp.full[np.isin(cells, kept_cells)])
            if kind == KIND_P22:
                # one block: A and A[keep] as a whole, in table order
                assert np.array_equal(lp.full, fresh_A)
                assert np.array_equal(lp.kept, fresh_A[fresh_keep])
                assert np.array_equal(lp.kept_cells, fresh_keep[None])
            else:
                assert lp.cells.shape == (4 ** (n - 1), 16) and lp.kept.shape == (9, 16)
            # the layout check_lp_size prices
            shape = analysis._block_shape(kind, n)
            assert lp.kept.shape == (shape.rows, shape.tuples)
            assert len(lp.cells) == shape.blocks
            for a in lp:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[(0,) * a.ndim] = 1
            assert cold.to_json() == warm.to_json()


def test_blocks_give_the_undecomposed_verdict_and_residual():
    for n in (2, 3):
        pr, noise = chain_pr_behavior(KIND_P14, n), uniform_behavior(KIND_P14, n)
        cases = [evaluate_chain(standard_scenario(n, KIND_P14)), pr,
                 mix_behaviors([0.3, 0.7], [pr, noise]), mix_behaviors([0.8, 0.2], [pr, noise])]
        D = strategy_behavior_matrix(KIND_P14, n)
        A = D.reshape(D.shape[0], -1).T
        keep = analysis._kept_rows(KIND_P14, n)
        for b in cases:
            rhs = b.table.reshape(-1)
            res = lp_local_membership(b)
            q, _, _ = analysis._phase1_simplex(A[keep], rhs[keep], res.tol / 1000)
            residual = np.abs(A @ q - rhs).max()
            assert bool(residual <= res.tol) is res.feasible
            assert abs(residual - res.max_residual) <= 1e-15


def test_p14_membership_never_builds_the_strategy_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("p14 membership must not build D")

    parties = []
    table = analysis.party_strategy_table

    def record(kind, n, p):
        parties.append(p)
        return table(kind, n, p)

    monkeypatch.setattr(analysis, "strategy_behavior_matrix", refuse)
    monkeypatch.setattr(analysis, "party_strategy_table", record)
    for n in (2, 3, 4, 5):
        analysis._lp_matrices.cache_clear()
        parties.clear()
        assert lp_local_membership(chain_pr_behavior(KIND_P14, n)).feasible is False
        # only the two ends' tables: one 16 x 16 block matrix
        assert parties == [0, n]
    analysis._lp_matrices.cache_clear()


def test_pinned_p14_weights_reproduce_the_table():
    case = next(c for c in json.loads((Path(__file__).parent / "data" /
                                       "default_payloads.json").read_text())
                if c["name"] == "lp-p14")
    result = case["payload"]["result"]
    b = evaluate_chain(standard_scenario(3, KIND_P14))
    w = hvmodels.StrategyWeights(KIND_P14, 3, np.reshape(result["weights"],
                                                        hvmodels.strategy_counts(KIND_P14, 3)))
    table = hvmodels.behavior_from_weights(w).table
    assert np.abs(table - b.table).max() <= result["tol"]


def test_lp_size_guard_refuses_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the guard must come before any table")

    monkeypatch.setattr(analysis, "party_strategy_table", refuse)
    for kind in (KIND_P22, KIND_P14):
        for n in (5, 8, 40):
            with pytest.raises(SizeGuardError):
                strategy_behavior_matrix(kind, n)
    # the membership LP: p22 past n = 4, p14 (priced by its blocks) past n = 7
    for kind, n in ((KIND_P22, 5), (KIND_P14, 8), (KIND_P22, 40), (KIND_P14, 40)):
        with pytest.raises(SizeGuardError):
            analysis._lp_matrices(kind, n)
    for kind, n in ((KIND_P22, 4), (KIND_P14, 7)):
        analysis.check_lp_size(kind, n)


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
    with pytest.raises(ScenarioError):
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
    # the linear bound is met with equality by these points, never crossed:
    # |I| + |J| = prod(alphas) <= 1 on a standard chain, whatever the profile
    rng = np.random.default_rng(23)
    for kind in (KIND_P22, KIND_P14):
        for n in (2, 3, 10, 59, 1000):
            profiles = [None, [1.0] * n, list(rng.uniform(0.5, 1.0, n)),
                        list(0.5 ** (rng.uniform(0.0, 0.95, n) / n))]
            for profile in profiles:
                with pytest.raises(NoCrossingError):
                    visibility_threshold(kind, n, profile=profile, bound="local")


def test_threshold_validation():
    with pytest.raises(RangeError):
        visibility_threshold(KIND_P22, 2, bound="both")
    with pytest.raises(ScenarioError):
        visibility_threshold(KIND_P22, 3, profile=[0.9, 0.9])
    with pytest.raises(RangeError):
        visibility_threshold(KIND_P22, 2, profile=[0.9, 1.1])
    for kind in (KIND_P22, KIND_P14):
        for profile in (None, [0.9]):
            with pytest.raises(ScenarioError):
                visibility_threshold(kind, 1, profile=profile)


def test_threshold_beyond_any_table():
    # 4**40 cells: only the chain contraction can reach this size
    t0 = time.perf_counter()
    for kind in (KIND_P22, KIND_P14):
        res = visibility_threshold(kind, 40)
        assert abs(res.product - 0.5) < 1e-6
        assert abs(res.value_at_threshold - 1.0) < 1e-6
    assert time.perf_counter() - t0 < 2.0


def _pointwise(IJ_at):
    """IJ_at that also takes a 1-D array of points, as a search asks for its
    interpolation nodes, and evaluates each point on its own."""
    def at(s):
        if isinstance(s, np.ndarray):
            I, J = zip(*(IJ_at(x) for x in s.tolist()))
            return list(I), list(J)
        return IJ_at(s)
    return at


def _exact_evaluations(monkeypatch):
    """A list that gathers each (I, J) the search reads on its exact line."""
    exact = []
    bound_values = analysis.bound_values
    monkeypatch.setattr(analysis, "bound_values", lambda *IJ: exact.append(IJ) or bound_values(*IJ))
    return exact


def test_threshold_matches_table_route(monkeypatch):
    """The search through werner_IJ against the same search with the table
    route injected at its seam, the line the search walks: one full table
    per visibility profile, the interpolation nodes included."""
    calls = []

    def table_route(scenario):
        n, kind = scenario.n, scenario.kind

        def line(base, step):
            def IJ_at(s):
                alphas = [b + s * d for b, d in zip(base, step)]
                calls.append(alphas)
                return compute_IJ(evaluate_chain(standard_scenario(n, kind, alphas)))
            return _pointwise(IJ_at)
        return SimpleNamespace(line=line)

    configs = [(kind, n, profile)
               for kind in (KIND_P22, KIND_P14) for n in range(2, 6)
               for profile in (None, [0.9] * (n - 1) + [0.8])]
    contracted = [visibility_threshold(kind, n, profile=profile)
                  for kind, n, profile in configs]
    exact = _exact_evaluations(monkeypatch)
    monkeypatch.setattr(analysis, "werner_IJ", table_route)
    for (kind, n, profile), res in zip(configs, contracted):
        calls.clear(), exact.clear()
        ref = visibility_threshold(kind, n, profile=profile)
        # the m + 1 nodes of the m moving sources, then each exact value:
        # the bracket end, any step in the band and the reported value
        m = n if profile is None else 1
        assert len(calls) == m + 1 + len(exact) and len(exact) >= 2
        assert res.iterations == ref.iterations
        assert abs(res.scale - ref.scale) < 1e-9
        assert abs(res.value_at_threshold - ref.value_at_threshold) < 1e-12


def _uneven_profile(rng, n):
    # alpha_i = 0.5 ** (u_i / n), u_i < 0.95: the product stays above 1/2, so
    # the profile violates the bound at full scale
    return list(0.5 ** (rng.uniform(0.0, 0.95, size=n) / n))


def test_line_search_matches_the_full_contraction_per_step(monkeypatch):
    """The search along its line against the same search with the route it
    replaced injected: every factor built and all n + 1 parties contracted
    at each step.  Equal profiles move every source and agree bit for bit;
    uneven ones fold the fixed sources into the right environment, a
    different association of the same product."""
    rng = np.random.default_rng(17)
    configs = [(kind, n, profile)
               for kind in (KIND_P22, KIND_P14) for n in (2, 3, 5, 9, 40, 200)
               for profile in (None, _uneven_profile(rng, n), _uneven_profile(rng, n))]
    along_line = [visibility_threshold(kind, n, profile=profile)
                  for kind, n, profile in configs]
    werner = evaluator.werner_IJ

    def full_route(scenario):
        IJ = werner(scenario)
        return SimpleNamespace(line=lambda base, step: _pointwise(
            lambda s: IJ([b + s * d for b, d in zip(base, step)])))

    monkeypatch.setattr(analysis, "werner_IJ", full_route)
    for (kind, n, profile), res in zip(configs, along_line):
        ref = visibility_threshold(kind, n, profile=profile)
        if profile is None:
            assert res == ref, (kind, n)
            continue
        assert (res.iterations, res.bracket_width) == (ref.iterations, ref.bracket_width)
        assert abs(res.scale - ref.scale) < 1e-12
        assert abs(res.value_at_threshold - ref.value_at_threshold) < 1e-12
        assert res.alphas[1:] == ref.alphas[1:] == profile[1:]


def test_threshold_search_builds_fixed_factors_once(monkeypatch):
    """With a profile the n - 1 fixed sources' factors are built once per
    search and every evaluation after that builds one factor: the bracket
    end, the two interpolation nodes in one call, and the reported value.
    With none, each of the same three evaluations builds two, the left end
    and the middle, the n + 1 nodes again in one call.  No step of these
    searches lies in the band, where a step is decided on the exact line."""
    built = []
    factor = evaluator._werner_factor

    def counted(noise, slope, alpha):
        built.append(alpha)
        return factor(noise, slope, alpha)

    monkeypatch.setattr(evaluator, "_werner_factor", counted)
    for kind in (KIND_P22, KIND_P14):
        for n in (2, 3, 24, 25, 40, 1000):
            built.clear()
            visibility_threshold(kind, n, profile=[0.5 ** (0.5 / n)] * n)
            assert len(built) == (n - 1) + 3
            assert np.shape(built[n]) == (2,)
            built.clear()
            visibility_threshold(kind, n)
            assert len(built) == 2 * 3
            assert np.shape(built[2]) == (n + 1,)


def test_threshold_steps_on_the_exact_line_keep_every_result(monkeypatch):
    """With the band around 1 widened to 1.0, every interpolated step falls
    back to the exact line: the searches are the same, field for field."""
    rng = np.random.default_rng(27)
    configs = [(kind, n, profile)
               for kind in (KIND_P22, KIND_P14) for n in (2, 3, 5, 9, 24, 25, 40)
               for profile in (None, _uneven_profile(rng, n))]
    interpolated = [visibility_threshold(kind, n, profile=profile) for kind, n, profile in configs]
    exact = _exact_evaluations(monkeypatch)
    monkeypatch.setattr(analysis, "_INTERPOLANT_BAND", 1.0)
    for (kind, n, profile), res in zip(configs, interpolated):
        exact.clear()
        assert visibility_threshold(kind, n, profile=profile) == res, (kind, n)
        assert len(exact) == res.iterations + 2


def test_threshold_edge_profiles():
    for kind in (KIND_P22, KIND_P14):
        # n = 2, the bilocal chain, with and without a profile
        for profile in (None, [0.95, 0.9]):
            res = visibility_threshold(kind, 2, profile=profile)
            assert abs(res.product - 0.5) < 1e-6
            assert abs(res.value_at_threshold - 1.0) < 1e-6
        # source 1 at visibility 0: nothing moves along the line, I = J = 0
        with pytest.raises(NoCrossingError, match="value 0.000000"):
            visibility_threshold(kind, 3, profile=[0.0, 1.0, 1.0])
        # an entry above 1 is refused, wherever it stands
        for profile in ([1.0 + 1e-12, 0.9, 0.9], [0.9, 0.9, 1.5]):
            with pytest.raises(RangeError):
                visibility_threshold(kind, 3, profile=profile)


def test_threshold_validates_no_source_per_step(monkeypatch):
    """A kind's settings and the two Werner states are checked, and its
    parties' transfer tensors built, once per process; after that a search
    at any n and any bracket width checks no party, validates no source and
    builds no transfer tensor."""
    counts = {"density": 0, "transfer": 0, "party": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(qlin, "is_density_operator",
                        counted("density", qlin.is_density_operator))
    monkeypatch.setattr(evaluator, "_party_tensor", counted("transfer", evaluator._party_tensor))
    monkeypatch.setattr(network.Party, "__new__", counted("party", network.Party.__new__))
    network._standard_chain_parties.cache_clear()
    network._werner_states.cache_clear()
    default = analysis.BISECTION_WIDTH
    for kind in (KIND_P22, KIND_P14):
        counts.update(density=0, transfer=0, party=0)
        visibility_threshold(kind, 3)
        # white noise and the singlet (for the first kind only), the end
        # party and the intermediate, and on each Werner state the end's
        # tensors as left and as right end and the intermediate's
        assert counts == {"density": 2 if kind == KIND_P22 else 0, "transfer": 6, "party": 2}
        seen = set()
        for n in (2, 6, 40):
            for width in (1e-2, default):
                monkeypatch.setattr(analysis, "BISECTION_WIDTH", width)
                counts.update(density=0, transfer=0, party=0)
                res = visibility_threshold(kind, n, profile=[0.99] * n)
                assert counts == {"density": 0, "transfer": 0, "party": 0}
                seen.add(res.iterations)
        assert len(seen) == 2


def test_long_chains_are_refused_before_anything_is_built(monkeypatch):
    guard = errors.CHAIN_LENGTH_GUARD
    # n = 40 and the guard itself pass
    for kind in (KIND_P22, KIND_P14):
        assert abs(visibility_threshold(kind, guard).value_at_threshold - 1.0) < 1e-4
        assert figure4_report(kind, 40)["n"] == 40

    def refuse(*args, **kwargs):
        raise AssertionError("the chain-length guard must come first")

    for name in ("werner_IJ", "standard_scenario", "chain_IJ", "model_IJ"):
        monkeypatch.setattr(analysis, name, refuse)
    monkeypatch.setattr(hvmodels, "tightness_model", refuse)
    monkeypatch.setattr(hvmodels, "decomposition_model", refuse)
    for kind in (KIND_P22, KIND_P14):
        for n in (guard + 1, 10 ** 9):
            for call in (visibility_threshold, figure4_report):
                with pytest.raises(SizeGuardError, match=f"chain of {n} sources"):
                    call(kind, n)
        with pytest.raises(SizeGuardError):
            visibility_threshold(kind, guard + 1, profile=[0.9] * (guard + 1))


def test_long_tightness_models_are_refused_before_anything_is_built(monkeypatch):
    guard = errors.CHAIN_LENGTH_GUARD
    assert guard == hvmodels.CHAIN_LENGTH_GUARD
    assert len(hvmodels.tightness_model(KIND_P14, guard, 0.5).responses) == guard + 1

    def refuse(*args, **kwargs):
        raise AssertionError("the chain-length guard must come first")

    monkeypatch.setattr(hvmodels, "NLocalModel", refuse)
    monkeypatch.setattr(hvmodels, "_end_flip_response", refuse)
    for kind in (KIND_P22, KIND_P14):
        for n in (guard + 1, 10 ** 9):
            with pytest.raises(SizeGuardError, match=f"chain of {n} sources"):
                hvmodels.tightness_model(kind, n, 0.5)


def test_figure4_grid_cost_is_bounded_before_anything_is_built(monkeypatch):
    # the count the guard reads is the grid's length
    for step in (0.5, 0.3, 0.05, 0.0476, 0.025, 1e-3, 1 / 3, 0.1, 7e-5):
        assert math.ceil((1.0 + step / 2) / step) == len(np.arange(0.0, 1.0 + step / 2, step))

    def refuse(*args, **kwargs):
        raise AssertionError("reached a builder")

    for name in ("standard_scenario", "chain_IJ", "model_IJ"):
        monkeypatch.setattr(analysis, name, refuse)
    monkeypatch.setattr(hvmodels, "tightness_model", refuse)
    monkeypatch.setattr(hvmodels, "decomposition_model", refuse)
    guard = errors.CHAIN_LENGTH_GUARD
    # n x grid points up to the default grid's 21 at the longest chain pass
    # the guard and reach the builders; one point more is refused
    for n, step in ((guard, 0.05), (guard // 2, 0.025), (2, 1e-4)):
        with pytest.raises(AssertionError, match="reached a builder"):
            figure4_report(KIND_P22, n, step)
    for n, step in ((guard, 0.0476), (guard // 2 + 13, 0.025), (2, 9e-5), (2, 1e-9),
                    (2, 5e-324)):
        for kind in (KIND_P22, KIND_P14):
            with pytest.raises(SizeGuardError, match="grid points, over"):
                figure4_report(kind, n, step)


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
    # the mixture sweep holds one block of weights and its product at a time
    budget_bytes = hvmodels.MC_BLOCK_CELLS * 8
    for sweep, blocks in ((lambda: mc_nlocal_sweep(KIND_P22, 4, 4, 3000, seed=1), 4),
                          (lambda: mc_local_mixture_sweep(KIND_P22, 4, 1500, seed=1), 2.5),
                          (lambda: mc_local_mixture_sweep(KIND_P14, 4, 1500, seed=1), 2.5)):
        sweep()  # strategy tables and imports first
        tracemalloc.start()
        try:
            sweep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < blocks * budget_bytes, peak / budget_bytes


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
    # the pool counts the cores this process may run on, not the machine's
    for cores in (1, 3):
        monkeypatch.setattr("netlocal.behavior._cores", lambda: cores)
        for trials, workers in ((2, 4), (3, 10_000)):
            res = mc_nlocal_sweep(KIND_P22, 2, 2, trials, seed=3, workers=workers)
            assert res == mc_nlocal_sweep(KIND_P22, 2, 2, trials, seed=3, workers=1)
    assert job_counts == [2, 3, 2, 3]
    assert sizes == [1, 1, 2, 3]


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
