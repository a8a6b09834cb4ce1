"""Born-rule evaluation: naive vs chain contraction, closed forms, relabeling."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from netlocal.behavior import _outcome_digits, compute_IJ
from netlocal.errors import KindError, RangeError, ScenarioError, SizeGuardError
from netlocal.evaluator import (
    chain_IJ,
    closed_form_p14,
    closed_form_p22,
    closed_form_p22_end_parity,
    evaluate_chain,
    evaluate_naive,
    reduce_p14_to_p22,
    reference_relabeling,
    relabel_outputs,
    to_reference_convention,
)
from netlocal.network import (
    KIND_P14,
    KIND_P22,
    NetworkScenario,
    SourceState,
    standard_scenario,
    werner,
)


def test_frozen_born_entries_p14():
    b = evaluate_chain(standard_scenario(2, KIND_P14))
    # outcome string m = 2*b0 + b1; the all-zero input is the only p14 input
    # with x1 = xlast = 0
    assert abs(b.prob((0, 0, 0), (0, 3, 0)) - 0.0) < 1e-12
    assert abs(b.prob((0, 0, 0), (0, 3, 1)) - 0.125) < 1e-12
    assert abs(b.prob((0, 0, 0), (0, 0, 0)) - 0.125) < 1e-12
    assert abs(b.prob((0, 0, 0), (0, 0, 1)) - 0.0) < 1e-12


def test_frozen_born_entries_p22():
    b = evaluate_chain(standard_scenario(2, KIND_P22))
    assert abs(b.prob((0, 0, 0), (0, 0, 0)) - 3.0 / 16.0) < 1e-12
    assert abs(b.prob((0, 0, 0), (0, 0, 1)) - 1.0 / 16.0) < 1e-12


def test_born_correlators_alternate_sign_with_n():
    for kind in (KIND_P22, KIND_P14):
        for n in (2, 3):
            I, J = compute_IJ(evaluate_chain(standard_scenario(n, kind)))
            want = 0.5 * (-1.0) ** n
            assert abs(I - want) < 1e-12 and abs(J - want) < 1e-12


def test_chain_matches_naive_on_standard_scenarios():
    for kind in (KIND_P22, KIND_P14):
        for n in (2, 3):
            sc = standard_scenario(n, kind)
            a = evaluate_naive(sc)
            b = evaluate_chain(sc)
            assert np.abs(a.table - b.table).max() < 1e-13


def _haar_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_chain_matches_naive_on_rotated_scenario():
    # conjugate every party's settings by a random unitary: still a valid
    # scenario, now with genuinely complex operators
    rng = np.random.default_rng(7)
    sc = standard_scenario(3, KIND_P22)
    u_ends = [_haar_unitary(rng, 2) for _ in range(2)]
    u_mids = [_haar_unitary(rng, 4) for _ in range(2)]
    rotated = NetworkScenario(
        n=3, kind=KIND_P22, sources=sc.sources,
        end_settings=[[u @ o @ u.conj().T for o in obs]
                      for u, obs in zip(u_ends, sc.end_settings)],
        intermediate_settings=[[u @ o @ u.conj().T for o in ops]
                               for u, ops in zip(u_mids, sc.intermediate_settings)],
    )
    a = evaluate_naive(rotated)
    b = evaluate_chain(rotated)
    assert np.abs(a.table - b.table).max() < 1e-13


def test_chain_table_peak_allocation_is_about_one_table():
    # the table is written in place, one block per pair of last-party
    # inputs, beside a running array a quarter its size (measured 1.25x); a
    # final tensordot plus a transposed copy would hold two tables (2.25x)
    scenario = standard_scenario(9, KIND_P22)
    tracemalloc.start()
    try:
        table = evaluate_chain(scenario).table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * table.nbytes, peak / table.nbytes


def test_naive_size_guard():
    with pytest.raises(SizeGuardError):
        evaluate_naive(standard_scenario(7, KIND_P22))


def test_closed_form_validation():
    for fn in (closed_form_p14, closed_form_p22, closed_form_p22_end_parity):
        with pytest.raises(RangeError):
            fn(1)


def test_frozen_closed_form_entry():
    cf = closed_form_p14(2)
    assert cf.prob((0, 0, 0), (0, 1, 0)) == 1.0 / 16.0


def test_closed_forms_cache_no_outcome_digits():
    # a cache would keep every n's digit arrays for the life of the process
    for kind, form in ((KIND_P14, closed_form_p14), (KIND_P22, closed_form_p22_end_parity)):
        form(5)
        digits = _outcome_digits(kind, 5)
        refs = [weakref.ref(d) for d in digits]
        del digits
        gc.collect()
        assert all(ref() is None for ref in refs), kind


def test_closed_form_p22_has_no_end_correlations():
    # the plain transcription drops end outcomes from the signed term, so
    # every end-to-end correlator vanishes; the end-parity variant restores
    # the quantum values
    assert compute_IJ(closed_form_p22(3)) == (0.0, 0.0)
    assert np.allclose(compute_IJ(closed_form_p22_end_parity(3)), (-0.5, -0.5))


def test_reference_relabeling_depends_on_chain_parity():
    assert reference_relabeling(2) == [(0, (1, 0))]
    assert reference_relabeling(3) == []
    assert reference_relabeling(4) == [(0, (1, 0))]


def test_relabel_outputs_validation_and_involution():
    b = evaluate_chain(standard_scenario(2, KIND_P22))
    flipped = relabel_outputs(b, 0, (1, 0))
    assert not np.allclose(flipped.table, b.table)
    assert np.array_equal(relabel_outputs(flipped, 0, (1, 0)).table, b.table)
    with pytest.raises(RangeError):
        relabel_outputs(b, 5, (1, 0))
    with pytest.raises(RangeError):
        relabel_outputs(b, 0, (0, 0))


def test_reference_convention_matches_closed_forms():
    for n in (2, 3, 4):
        born = to_reference_convention(evaluate_chain(standard_scenario(n, KIND_P14)))
        assert np.abs(born.table - closed_form_p14(n).table).max() < 1e-10
        born22 = to_reference_convention(evaluate_chain(standard_scenario(n, KIND_P22)))
        assert np.abs(born22.table - closed_form_p22_end_parity(n).table).max() < 1e-10


def test_unrelabeled_mismatch_only_for_even_n():
    for n, expect_gap in ((2, True), (3, False), (4, True)):
        born = evaluate_chain(standard_scenario(n, KIND_P14))
        gap = np.abs(born.table - closed_form_p14(n).table).max()
        assert (gap > 1e-3) == expect_gap


def test_reduction_equals_end_parity_form_exactly():
    for n in (2, 3, 4):
        reduced = reduce_p14_to_p22(closed_form_p14(n))
        assert np.array_equal(reduced.table, closed_form_p22_end_parity(n).table)


def test_reduction_preserves_correlators():
    for n in (2, 3):
        b14 = evaluate_chain(standard_scenario(n, KIND_P14))
        b22 = reduce_p14_to_p22(b14)
        assert np.allclose(compute_IJ(b22), compute_IJ(b14), atol=1e-12)
    with pytest.raises(KindError):
        reduce_p14_to_p22(evaluate_chain(standard_scenario(2, KIND_P22)))


def test_chain_IJ_matches_table_route_and_closed_form():
    rng = np.random.default_rng(2024)
    for kind in (KIND_P22, KIND_P14):
        for n in range(2, 8):
            alphas = rng.uniform(0.2, 1.0, size=n)
            sc = standard_scenario(n, kind, alphas)
            I, J = chain_IJ(sc)
            want_I, want_J = compute_IJ(evaluate_chain(sc))
            assert abs(I - want_I) < 1e-12 and abs(J - want_J) < 1e-12
            half_product = float(np.prod(alphas)) / 2.0
            assert abs(abs(I) - half_product) < 1e-12
            assert abs(abs(J) - half_product) < 1e-12


def test_chain_IJ_matches_table_route_on_rotated_settings():
    rng = np.random.default_rng(11)
    for kind in (KIND_P22, KIND_P14):
        sc = standard_scenario(3, kind, rng.uniform(0.5, 1.0, size=3))
        u_ends = [_haar_unitary(rng, 2) for _ in range(2)]
        u_mids = [_haar_unitary(rng, 4) for _ in range(2)]
        rotated = NetworkScenario(
            n=3, kind=kind, sources=sc.sources,
            end_settings=[[u @ o @ u.conj().T for o in obs]
                          for u, obs in zip(u_ends, sc.end_settings)],
            intermediate_settings=[[u @ o @ u.conj().T for o in ops]
                                   for u, ops in zip(u_mids, sc.intermediate_settings)],
        )
        assert np.allclose(chain_IJ(rotated), compute_IJ(evaluate_chain(rotated)),
                           rtol=0.0, atol=1e-12)


def test_chain_IJ_sources_override_and_trace_check():
    sc = standard_scenario(3, KIND_P14)
    sources = [SourceState(werner(a), alpha=a) for a in (0.9, 0.8, 0.7)]
    assert np.allclose(chain_IJ(sc, sources),
                       compute_IJ(evaluate_chain(standard_scenario(3, KIND_P14,
                                                                   (0.9, 0.8, 0.7)))),
                       atol=1e-12)
    # a trace 5e-10 above 1 passes the source's own 1e-9 check but not the
    # 1e-10 normalisation every behavior must meet
    sources[1] = SourceState(werner(0.8) * (1.0 + 5e-10))
    with pytest.raises(RangeError):
        chain_IJ(sc, sources)
    with pytest.raises(ScenarioError):
        chain_IJ(sc, sources[:2])
