"""Born-rule evaluation: naive vs chain contraction, closed forms, relabeling."""

import gc
import time
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from netlocal.behavior import _outcome_digits, compute_IJ
from netlocal.errors import CHAIN_LENGTH_GUARD, KindError, RangeError, ScenarioError, SizeGuardError
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
    werner_IJ,
)
from netlocal import behavior, evaluator, network
from netlocal.analysis import _line_interpolant
from netlocal.network import (
    ID4,
    KIND_P14,
    KIND_P22,
    NetworkScenario,
    SourceState,
    bsm_projectors,
    end_observable,
    partial_bsm_observable,
    scenario_to_json,
    singlet,
    standard_scenario,
    werner,
)


def reference_scenario(n, kind, alphas=None):
    """The standard chain built the long way, as standard_scenario once
    built it: explicit settings lists for every party, one checked
    SourceState(werner(a)) per source, and every check of the constructor."""
    network.check_chain(n, kind)
    alphas = [1.0] * n if alphas is None else network.check_visibilities(n, alphas)
    sources = [SourceState(werner(a), alpha=a) for a in alphas]
    ends = [[end_observable(0), end_observable(1)] for _ in range(2)]
    if kind == KIND_P22:
        mids = [[partial_bsm_observable(0), partial_bsm_observable(1)] for _ in range(n - 1)]
    else:
        mids = [bsm_projectors() for _ in range(n - 1)]
    return NetworkScenario(n=n, kind=kind, sources=sources,
                           end_settings=ends, intermediate_settings=mids)


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


def _rotated(sc, rng):
    """sc with every party's settings conjugated by a random unitary: still
    a valid scenario, now with genuinely complex operators."""
    u_ends = [_haar_unitary(rng, 2) for _ in range(2)]
    u_mids = [_haar_unitary(rng, 4) for _ in range(sc.n - 1)]
    return NetworkScenario(
        n=sc.n, kind=sc.kind, sources=sc.sources,
        end_settings=[[u @ o @ u.conj().T for o in obs]
                      for u, obs in zip(u_ends, sc.end_settings)],
        intermediate_settings=[[u @ o @ u.conj().T for o in ops]
                               for u, ops in zip(u_mids, sc.intermediate_settings)],
    )


def test_chain_matches_naive_on_rotated_scenario():
    rotated = _rotated(standard_scenario(3, KIND_P22), np.random.default_rng(7))
    a = evaluate_naive(rotated)
    b = evaluate_chain(rotated)
    assert np.abs(a.table - b.table).max() < 1e-13


def test_chain_table_peak_allocation_is_about_one_table():
    # the table is written in place, block by block, each block swept beside
    # temporaries of at most TABLE_BLOCK_CELLS cells (measured 2 MiB over the
    # table); an unblocked sweep holds a running array a quarter the table's
    # size (1.25x, 8 MiB over at n = 10), and a final tensordot plus a
    # transposed copy would hold two tables (2.25x)
    for kind in (KIND_P22, KIND_P14):
        scenario = standard_scenario(10, kind)
        tracemalloc.start()
        try:
            table = evaluate_chain(scenario).table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes + 4 * 2 ** 20, (kind, peak / table.nbytes)


def test_chain_table_peak_allocation_holds_on_four_threads(monkeypatch):
    # each of the four threads sweeps blocks of a quarter of the budget
    monkeypatch.setattr(behavior, "_cores", lambda: 4)
    test_chain_table_peak_allocation_is_about_one_table()


def test_naive_size_guard():
    with pytest.raises(SizeGuardError):
        evaluate_naive(standard_scenario(7, KIND_P22))


def test_closed_form_validation(monkeypatch):
    for fn in (closed_form_p14, closed_form_p22, closed_form_p22_end_parity):
        with pytest.raises(ScenarioError):
            fn(1)

    # every n that returns is at most 13 (a 2 GiB table); past it the table
    # is priced with chain_table's message before any array is built
    def refuse(*args, **kwargs):
        raise AssertionError("the table must be priced before anything is built")

    monkeypatch.setattr(evaluator, "_outcome_digits", refuse)
    monkeypatch.setattr(evaluator, "_p22_delta_rows", refuse)
    for fn in (closed_form_p14, closed_form_p22, closed_form_p22_end_parity):
        for n in (14, 16, 10 ** 9):
            with pytest.raises(SizeGuardError, match=f"{n + 1}-party chain, over"):
                fn(n)


def test_closed_form_p14_peak_allocation_is_about_one_table():
    # each input row is written in place; stacking four full-size rows
    # peaked at about 2.4 tables
    tracemalloc.start()
    try:
        table = closed_form_p14(9).table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * table.nbytes, peak / table.nbytes


@pytest.mark.parametrize("n", (8, 9))
def test_p22_reference_tables_peak_allocation(n):
    # the reduction reads each p14 row once, through one scratch row, and the
    # closed form writes its eight non-uniform rows into a uniform table
    b14 = closed_form_p14(n)
    for make, bound in ((lambda: reduce_p14_to_p22(b14), 1.5),
                        (lambda: closed_form_p22_end_parity(n), 1.1)):
        tracemalloc.start()
        try:
            table = make().table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * table.nbytes, peak / table.nbytes


class _UnsizedN(int):
    """A chain length that refuses to size a sequence: [x] * n and
    [x] * (n - 1) raise, so a test sees an O(n) list before it is made."""

    def __mul__(self, other):
        raise AssertionError("an O(n) list was built before n was priced")

    __rmul__ = __mul__

    def __sub__(self, other):
        return _UnsizedN(int(self) - other)


def test_standard_routes_price_n_before_any_list(monkeypatch):
    # standard_scenario prices n by CHAIN_LENGTH_GUARD before the default
    # profile, the profile check, the parties or the scenario
    def refuse(*args, **kwargs):
        raise AssertionError("n must be priced before anything is built")

    for name in ("check_visibilities", "_standard_chain_parties", "NetworkScenario"):
        monkeypatch.setattr(network, name, refuse)
    huge = _UnsizedN(10 ** 9)
    for kind in (KIND_P22, KIND_P14):
        took = []
        for _ in range(5):
            t0 = time.perf_counter()
            with pytest.raises(SizeGuardError,
                               match=f"chain of 1000000000 sources, over {CHAIN_LENGTH_GUARD}"):
                standard_scenario(huge, kind)
            took.append(time.perf_counter() - t0)
        assert min(took) < 1e-3, took
        with pytest.raises(SizeGuardError):
            standard_scenario(huge, kind, [0.9] * 3)
        # a bad kind, and too short a chain, keep their own errors
        for n in (1, -3):
            with pytest.raises(ScenarioError):
                standard_scenario(n, kind)
    with pytest.raises(KindError):
        standard_scenario(huge, "p13")


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
    for n in range(2, 10):
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


def _signed_elements(settings, dim):
    """(1 + B)/2 and (1 - B)/2 for each dichotomic observable B."""
    return [[(np.eye(dim, dtype=complex) + (-1) ** a * b) / 2.0 for a in (0, 1)]
            for b in settings]


def test_scenario_elements_and_every_route_reads_them():
    rng = np.random.default_rng(21)
    alphas = [0.9, 0.8, 0.7]
    for kind in (KIND_P22, KIND_P14):
        standard = standard_scenario(3, kind, alphas)
        for sc in (standard, _rotated(standard, rng)):
            # the settings' element arrays, bit for bit and read-only
            ends = [_signed_elements(obs, 2) for obs in sc.end_settings]
            mids = [_signed_elements(ops, 4) if kind == KIND_P22 else [ops]
                    for ops in sc.intermediate_settings]
            assert len(sc.elements) == sc.n + 1
            for got, want in zip(sc.elements, [ends[0], *mids, ends[1]]):
                want = np.asarray(want, dtype=complex)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert not got.flags.writeable
            # negating the left end's observables swaps its outcomes and flips
            # the sign of I and J on every route, so each one reads the
            # scenario's own parties
            flipped = replace(sc, end_settings=[[-o for o in sc.end_settings[0]],
                                                sc.end_settings[1]])
            assert flipped.elements[0].tobytes() == sc.elements[0][:, ::-1].tobytes()
            assert all(a is b for a, b in zip(flipped.parties[1:], sc.parties[1:]))
            routes = (lambda s: compute_IJ(evaluate_naive(s)),
                      lambda s: compute_IJ(evaluate_chain(s)),
                      chain_IJ,
                      lambda s: werner_IJ(s)(alphas))
            for route in routes:
                signed = np.asarray(route(sc))
                assert np.abs(signed).min() > 1e-3
                assert np.allclose(route(flipped), -signed, rtol=0.0, atol=1e-12)


def test_chain_IJ_matches_table_route_on_rotated_settings():
    rng = np.random.default_rng(11)
    for kind in (KIND_P22, KIND_P14):
        rotated = _rotated(standard_scenario(3, kind, rng.uniform(0.5, 1.0, size=3)), rng)
        assert np.allclose(chain_IJ(rotated), compute_IJ(evaluate_chain(rotated)),
                           rtol=0.0, atol=1e-12)


def test_chain_IJ_sources_override_and_trace_check():
    sc = standard_scenario(3, KIND_P14)
    sources = [SourceState(werner(a), alpha=a) for a in (0.9, 0.8, 0.7)]
    assert np.allclose(chain_IJ(replace(sc, sources=sources)),
                       compute_IJ(evaluate_chain(standard_scenario(3, KIND_P14,
                                                                   (0.9, 0.8, 0.7)))),
                       atol=1e-12)
    # a trace 5e-10 above 1 passes the source's own 1e-9 check but not the
    # 1e-10 normalisation every behavior must meet
    sources[1] = SourceState(werner(0.8) * (1.0 + 5e-10))
    with pytest.raises(RangeError):
        chain_IJ(replace(sc, sources=sources))
    with pytest.raises(ScenarioError):
        chain_IJ(replace(sc, sources=sources[:2]))


def test_werner_IJ_matches_chain_IJ_on_werner_sources():
    rng = np.random.default_rng(5)
    for kind, ns in ((KIND_P22, range(2, 10)), (KIND_P14, range(2, 9))):
        for n in ns:
            sc = standard_scenario(n, kind)
            IJ = werner_IJ(sc)
            for alphas in (rng.uniform(0.0, 1.0, size=n), [0.0] * n, [1.0] * n):
                sources = [SourceState(werner(a), alpha=a) for a in alphas]
                assert np.abs(np.subtract(IJ(alphas),
                                          chain_IJ(replace(sc, sources=sources)))).max() < 1e-13


def test_werner_IJ_on_complex_settings():
    rng = np.random.default_rng(12)
    for kind in (KIND_P22, KIND_P14):
        rotated = _rotated(standard_scenario(3, kind), rng)
        alphas = rng.uniform(0.0, 1.0, size=3)
        sources = [SourceState(werner(a), alpha=a) for a in alphas]
        assert np.abs(np.subtract(werner_IJ(rotated)(alphas),
                                  chain_IJ(replace(rotated, sources=sources)))).max() < 1e-13
        # a chain of real and complex parties: werner_IJ takes each party in
        # real arithmetic when its own tensor is real, chain_IJ the whole
        # chain only when every tensor is, so the two may differ in the last bits
        plain = standard_scenario(3, kind)
        mixed = replace(plain, sources=sources,
                        end_settings=[rotated.end_settings[0], plain.end_settings[1]])
        assert np.abs(np.subtract(werner_IJ(mixed)(alphas), chain_IJ(mixed))).max() < 1e-13


def _affine_arguments(monkeypatch, make):
    """The (noise, slopes) factor lists that make() hands to the closure."""
    seen = []

    def recording(noise, slopes):
        seen.append((noise, slopes))
        return affine(noise, slopes)

    affine = evaluator._affine_IJ
    monkeypatch.setattr(evaluator, "_affine_IJ", recording)
    make()
    monkeypatch.setattr(evaluator, "_affine_IJ", affine)
    return seen[-1]


def test_standard_factors_equal_the_scenario_route(monkeypatch):
    # the factors kept on the standard chain's two parties, checked once per
    # process, against those werner_IJ builds from the reference scenario's
    # n + 1 parties, each checked on its own, party by party and bit for bit
    for kind in (KIND_P22, KIND_P14):
        for n in range(2, 13):
            kept = _affine_arguments(monkeypatch, lambda: werner_IJ(standard_scenario(n, kind)))
            built = _affine_arguments(
                monkeypatch, lambda: werner_IJ(reference_scenario(n, kind)))
            for got, want in zip(kept, built):
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (kind, n)
            # the middle parties share one factor
            assert all(f is kept[0][1] for f in kept[0][1:n])
            alphas = np.linspace(0.5, 1.0, n)
            assert werner_IJ(standard_scenario(n, kind))(alphas) == werner_IJ(
                reference_scenario(n, kind))(alphas)


def test_standard_factors_are_read_only(monkeypatch):
    for kind in (KIND_P22, KIND_P14):
        sc = standard_scenario(5, kind)
        noise, slopes = _affine_arguments(monkeypatch, lambda: werner_IJ(sc))
        assert len({id(p) for p in sc.parties}) == 2 and len(sc.parties) == 6
        states = list(network._werner_states())
        for f in noise + slopes + list(sc.elements) + states:
            with pytest.raises(ValueError):
                f[...] = 0.0
        # a search or a table after the attempts still reads the kept values
        assert [rho.tobytes() for rho in states] == [(ID4 / 4.0).tobytes(), singlet().tobytes()]
        alphas = [1.0, 0.9, 0.8, 0.9, 1.0]
        assert werner_IJ(sc)(alphas) == werner_IJ(reference_scenario(5, kind))(alphas)
        assert np.array_equal(evaluate_chain(standard_scenario(5, kind, alphas)).table,
                              evaluate_chain(reference_scenario(5, kind, alphas)).table)


def test_standard_werner_IJ_validation():
    for kind in (KIND_P22, KIND_P14):
        for n in (1, 0, -3):
            with pytest.raises(ScenarioError):
                werner_IJ(standard_scenario(n, kind))
        IJ = werner_IJ(standard_scenario(3, kind))
        for bad in (1.1, -0.1, float("nan")):
            with pytest.raises(RangeError):
                IJ([0.9, bad, 0.9])
        with pytest.raises(ScenarioError):
            IJ([0.9, 0.9])
    with pytest.raises(KindError):
        werner_IJ(standard_scenario(3, "p13"))


def _profiles(rng, n):
    """Visibility profiles for the standard chain: the default, seeded
    uneven ones, and ones holding exact 0.0 and 1.0 entries."""
    edges = rng.uniform(0.3, 1.0, size=n)
    edges[0], edges[-1] = 0.0, 1.0
    return [None, list(rng.uniform(0.0, 1.0, size=n)), [0.0] * n, [1.0] * n, list(edges)]


def test_standard_behavior_equals_the_scenario_route():
    """standard_scenario, which checks no operator and no state, against the
    reference scenario, which checks every party and source: the same table,
    I and J on every route, and the same scenario document, bit for bit."""
    rng = np.random.default_rng(18)
    for kind in (KIND_P22, KIND_P14):
        for n in range(2, 11):
            for alphas in _profiles(rng, n) if n < 10 else [None]:
                got, want = standard_scenario(n, kind, alphas), reference_scenario(n, kind, alphas)
                assert [e.tobytes() for e in got.elements] == [e.tobytes() for e in want.elements]
                table, ref = evaluate_chain(got).table, evaluate_chain(want).table
                assert table.dtype == ref.dtype and table.flags.c_contiguous
                # the same bits, -0.0 included
                assert table.tobytes() == ref.tobytes(), (kind, n, alphas)
                assert chain_IJ(got) == chain_IJ(want), (kind, n, alphas)
                assert repr(scenario_to_json(got)) == repr(scenario_to_json(want))
                profile = [1.0] * n if alphas is None else alphas
                IJ, ref_IJ = werner_IJ(got), werner_IJ(want)
                assert IJ(profile) == ref_IJ(profile)
                lines = [([0.0] * n, [1.0] * n), ([0.0] + profile[1:], profile[:1] + [0.0] * (n - 1))]
                for line in lines:
                    assert [IJ.line(*line)(s) for s in (0.0, 0.3, 1.0)] == [
                        ref_IJ.line(*line)(s) for s in (0.0, 0.3, 1.0)], (kind, n, alphas)


def test_werner_states_are_white_noise_and_the_singlet():
    # werner(a) and werner_IJ read the two states checked once, bit for bit
    # the singlet() and ID4 / 4 that werner(a) mixes
    for a in (0.0, 0.3, 0.7071067811865476, 1.0):
        assert werner(a).tobytes() == (a * singlet() + (1.0 - a) * ID4 / 4.0).tobytes()
    assert [rho.tobytes() for rho in network._werner_states()] == [
        (ID4 / 4.0).tobytes(), singlet().tobytes()]


def test_standard_behavior_refuses_before_building_tensors(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("arguments must be checked before any party tensor is built")

    for kind in (KIND_P22, KIND_P14):
        evaluate_chain(standard_scenario(3, kind))  # warm: only the request is checked
    monkeypatch.setattr(evaluator, "_party_tensor", refuse)
    monkeypatch.setattr(network.Party, "__new__", refuse)
    monkeypatch.setattr(SourceState, "__post_init__", refuse)
    for kind in (KIND_P22, KIND_P14):
        for alphas in ([0.9, 0.9], [0.9] * 4, []):
            with pytest.raises(ScenarioError):
                evaluate_chain(standard_scenario(3, kind, alphas))
        for bad in (float("nan"), -0.1, 1.1):
            with pytest.raises(RangeError):
                evaluate_chain(standard_scenario(3, kind, [0.9, bad, 0.9]))
        for n in (1, 0, -3):
            with pytest.raises(ScenarioError):
                evaluate_chain(standard_scenario(n, kind))
    with pytest.raises(KindError):
        evaluate_chain(standard_scenario(3, "p13"))
    # a table over the budget is priced before any source is formed, with
    # chain_table's message
    monkeypatch.setattr(network, "werner", refuse)
    for kind in (KIND_P22, KIND_P14):
        for n in (14, 20, CHAIN_LENGTH_GUARD):
            with pytest.raises(SizeGuardError, match=f"{n + 1}-party chain, over"):
                evaluate_chain(standard_scenario(n, kind))


def test_werner_IJ_refuses_visibilities_outside_the_unit_interval():
    IJ = werner_IJ(standard_scenario(3, KIND_P22))
    for bad in (1.1, -0.1, float("nan")):
        with pytest.raises(RangeError):
            IJ([0.9, bad, 0.9])
    with pytest.raises(ScenarioError):
        IJ([0.9, 0.9])


def test_line_matches_the_closure_on_its_points():
    # equal lines move every source, so a value is the closure's bit for bit;
    # uneven ones fold the fixed parties from the right, a different association
    rng = np.random.default_rng(21)
    for kind in (KIND_P22, KIND_P14):
        for n in (2, 3, 7):
            IJ = werner_IJ(standard_scenario(n, kind))
            equal = IJ.line([0.0] * n, [1.0] * n)
            profile = rng.uniform(0.6, 1.0, size=n)
            uneven = IJ.line([0.0] + list(profile[1:]), [profile[0]] + [0.0] * (n - 1))
            for s in (0.0, 0.3, 0.8125, 1.0):
                assert equal(s) == IJ([s] * n)
                want = IJ([profile[0] * s] + list(profile[1:]))
                assert np.abs(np.subtract(uneven(s), want)).max() < 1e-15
        # complex settings, whose middle factors do not commute, on a line
        # that folds four parties into the environment
        IJ = werner_IJ(_rotated(standard_scenario(4, kind), rng))
        profile = rng.uniform(0.6, 1.0, size=4)
        uneven = IJ.line([0.0] + list(profile[1:]), [profile[0]] + [0.0] * 3)
        for s in (0.3, 1.0):
            want = IJ([profile[0] * s] + list(profile[1:]))
            assert np.abs(np.subtract(uneven(s), want)).max() < 1e-14
        # a line that moves a middle source only, and one that moves nothing
        IJ = werner_IJ(standard_scenario(5, kind))
        base, step = [0.9, 0.8, 0.1, 0.95, 0.9], [0.0, 0.0, 0.85, 0.0, 0.0]
        for s in (0.0, 0.5, 1.0):
            want = IJ([b + s * d for b, d in zip(base, step)])
            assert np.abs(np.subtract(IJ.line(base, step)(s), want)).max() < 1e-15
            assert IJ.line(base, [0.0] * 5)(s) == IJ.line(base, [0.0] * 5)(0.0)


def test_line_takes_an_array_of_points(monkeypatch):
    # one contraction over a leading axis of points: the values of the
    # points one by one, checked as they are
    rng = np.random.default_rng(22)
    points = np.array([0.0, 0.125, 0.3, 0.8125, 1.0])
    for kind in (KIND_P22, KIND_P14):
        for n in (2, 3, 7):
            IJ = werner_IJ(standard_scenario(n, kind))
            profile = rng.uniform(0.6, 1.0, size=n)
            for line in (IJ.line([0.0] * n, [1.0] * n),
                         IJ.line([0.0] + list(profile[1:]), [profile[0]] + [0.0] * (n - 1))):
                I, J = line(points)
                assert np.abs(np.subtract([I, J], np.transpose([line(s) for s in points]))).max() < 1e-15
            for bad in ([0.5, 1.0 + 1e-12], [-0.1, 0.5], [0.5, float("nan")]):
                with pytest.raises(RangeError):
                    line(np.array(bad))
    # the norm is checked at every point, not only at the first one
    noise, slopes = _affine_arguments(monkeypatch, lambda: werner_IJ(standard_scenario(2, KIND_P22)))
    # the norm now grows along the line, from 1 at s = 0
    at = evaluator._affine_IJ(noise, [slopes[0] + [[0.1], [0.0], [0.0]], slopes[1]]).line(
        [0.0, 1.0], [1.0, 0.0])
    at(0.0)
    with pytest.raises(RangeError, match="product of traces"):
        at(np.array([0.0, 0.5]))


def test_line_interpolant_matches_the_exact_line():
    # I and J of a line that moves m sources are polynomials of degree m,
    # known from the m + 1 Chebyshev nodes; complex settings too
    rng = np.random.default_rng(24)
    n = 24
    for kind in (KIND_P22, KIND_P14):
        for scenario in (standard_scenario(n, kind), _rotated(standard_scenario(n, kind), rng)):
            IJ = werner_IJ(scenario)
            for m in range(1, n + 1):
                start, end = rng.uniform(0.9, 1.0, size=(2, n))
                moving = rng.permutation(n)[:m]
                step = np.zeros(n)
                step[moving] = end[moving] - start[moving]
                at = IJ.line(list(start), list(step))
                interpolant = _line_interpolant(at, m)
                for s in rng.uniform(0.0, 1.0, size=50).tolist():
                    assert np.abs(np.subtract(interpolant(s), at(s))).max() < 1e-13, (kind, m)
    # the default profile's line, every source moving from 0 to 1
    for kind in (KIND_P22, KIND_P14):
        for m in (40, 200, 1000):
            at = werner_IJ(standard_scenario(m, kind)).line([0.0] * m, [1.0] * m)
            interpolant = _line_interpolant(at, m)
            for s in rng.uniform(0.0, 1.0, size=50).tolist():
                assert np.abs(np.subtract(interpolant(s), at(s))).max() < 1e-13, (kind, m)


def test_line_interpolant_returns_each_nodes_own_values():
    # at a node the interpolant gives back the values evaluated there, not
    # the barycentric formula, whose weight 1/(s - x) is infinite there
    calls = []

    def recorded(s):
        calls.append((s.tolist(), *at(s)))
        return calls[-1][1:]

    n = 40
    for kind in (KIND_P22, KIND_P14):
        IJ = werner_IJ(standard_scenario(n, kind))
        for m in (1, 2, 9, n):
            at = IJ.line([0.0] * m + [0.9] * (n - m), [1.0] * m + [0.0] * (n - m))
            calls.clear()
            interpolant = _line_interpolant(recorded, m)
            (nodes, I, J), = calls
            assert len(nodes) == m + 1
            for x, i, j in zip(nodes, I, J):
                assert interpolant(x) == (i, j), (kind, m, x)


def test_line_checks_its_ends_and_its_parameter():
    IJ = werner_IJ(standard_scenario(3, KIND_P22))
    for base, step in (([0.0, 0.9, 1.1], [1.0, 0.0, 0.0]),   # an end above 1
                       ([0.5, 0.9, 0.9], [0.6, 0.0, 0.0]),   # the far end above 1
                       ([0.5, 0.9, 0.9], [-0.6, 0.0, 0.0]),  # the far end below 0
                       ([0.5, 0.9, 0.9], [float("nan"), 0.0, 0.0])):
        with pytest.raises(RangeError):
            IJ.line(base, step)
    for base, step in (([0.0, 0.9], [1.0, 0.0]), ([0.0, 0.9, 0.9], [1.0, 0.0, 0.0, 0.0])):
        with pytest.raises(ScenarioError):
            IJ.line(base, step)
    at = IJ.line([0.0, 0.9, 0.9], [1.0, 0.0, 0.0])
    for bad in (1.0 + 1e-12, -0.1, float("nan")):
        with pytest.raises(RangeError):
            at(bad)
    # the ends themselves are points of the line
    for s, alphas in ((0.0, [0.0, 0.9, 0.9]), (1.0, [1.0, 0.9, 0.9])):
        assert np.abs(np.subtract(at(s), IJ(alphas))).max() < 1e-15


def test_line_step_builds_each_distinct_moving_factor_once(monkeypatch):
    """Per step: one factor and one contraction of two factors with an
    uneven profile at any n; two factors, the left end and the middle, and
    a sweep of every party with an equal one."""
    built, swept = [], []
    factor, contract = evaluator._werner_factor, evaluator.chain_contract

    def counted_factor(noise, slope, alpha):
        built.append(alpha)
        return factor(noise, slope, alpha)

    def counted_contract(factors):
        swept.append(len(factors))
        return contract(factors)

    for kind in (KIND_P22, KIND_P14):
        for n in (3, 40, 1000):
            IJ = werner_IJ(standard_scenario(n, kind))
            uneven = IJ.line([0.0] + [0.99] * (n - 1), [0.95] + [0.0] * (n - 1))
            equal = IJ.line([0.0] * n, [1.0] * n)
            monkeypatch.setattr(evaluator, "_werner_factor", counted_factor)
            monkeypatch.setattr(evaluator, "chain_contract", counted_contract)
            for s in (1.0, 0.5, 0.75):
                built.clear(), swept.clear()
                uneven(s)
                assert (built, swept) == ([0.95 * s], [2])
                built.clear(), swept.clear()
                equal(s)
                assert (built, swept) == ([s, s], [n + 1])
            monkeypatch.undo()
