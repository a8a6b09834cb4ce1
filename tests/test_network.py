"""Scenario construction: states, settings, validation, JSON round trips."""

import copy
import pickle

import numpy as np
import pytest

from netlocal import analysis
from netlocal.analysis import (chain_pr_behavior, check_lp_size, decomposition_check, figure4_report,
                               mc_local_mixture_sweep, mc_nlocal_sweep, visibility_threshold)
from netlocal.behavior import Behavior, uniform_behavior
from netlocal.errors import DimensionError, KindError, RangeError, ScenarioError
from netlocal.evaluator import closed_form_p14, closed_form_p22, closed_form_p22_end_parity, werner_IJ
from netlocal.hvmodels import (NLocalModel, decomposition_model, sample_random_model,
                               strategy_counts, tightness_model)
from netlocal.network import (
    KIND_P14,
    KIND_P22,
    NetworkScenario,
    Party,
    SourceState,
    alphabets,
    bsm_projectors,
    check_kind,
    end_observable,
    partial_bsm_observable,
    scenario_from_json,
    scenario_to_json,
    singlet,
    standard_scenario,
    werner,
)


def test_check_kind():
    assert check_kind("p22") == KIND_P22
    assert check_kind("p14") == KIND_P14
    with pytest.raises(KindError):
        check_kind("p13")


# every entry point that takes a chain's kind and n, as (kind, n) -> call; the
# closed forms take no kind
_CHAIN_ENTRY_POINTS = {
    "alphabets": alphabets,
    "Behavior": lambda kind, n: Behavior(kind, n, np.ones((1, 1))),
    "uniform_behavior": uniform_behavior,
    "closed_form_p14": lambda kind, n: closed_form_p14(n),
    "closed_form_p22": lambda kind, n: closed_form_p22(n),
    "closed_form_p22_end_parity": lambda kind, n: closed_form_p22_end_parity(n),
    "NetworkScenario": lambda kind, n: NetworkScenario(
        n=n, kind=kind, sources=[], end_settings=[], intermediate_settings=[]),
    "standard_scenario": lambda kind, n: standard_scenario(n, kind),
    "NLocalModel": lambda kind, n: NLocalModel(n=n, kind=kind, source_dists=[], responses=[]),
    "tightness_model": lambda kind, n: tightness_model(kind, n, 0.5),
    "decomposition_model": lambda kind, n: decomposition_model(kind, n, 0),
    "sample_random_model": lambda kind, n: sample_random_model(kind, n, 2, 0),
    "strategy_counts": strategy_counts,
    "mc_nlocal_sweep": lambda kind, n: mc_nlocal_sweep(kind, n, 2, 10, 0),
    "mc_local_mixture_sweep": lambda kind, n: mc_local_mixture_sweep(kind, n, 10, 0),
    "decomposition_check": decomposition_check,
    "visibility_threshold": visibility_threshold,
    "figure4_report": figure4_report,
    "chain_pr_behavior": chain_pr_behavior,
    "check_lp_size": check_lp_size,
}
# the entry points that build a model or a scenario after their own checks
_BUILDERS = ("tightness_model", "decomposition_model", "visibility_threshold", "figure4_report")


def _spy_on_builds(monkeypatch) -> list:
    """Record every NLocalModel or NetworkScenario built, and every
    standard_scenario call the analysis module makes."""
    built = []
    for cls in (NLocalModel, NetworkScenario):
        def spy(self, post_init=cls.__post_init__):
            built.append(type(self).__name__)
            post_init(self)
        monkeypatch.setattr(cls, "__post_init__", spy)
    monkeypatch.setattr(analysis, "standard_scenario",
                        lambda *args, **kwargs: built.append("standard_scenario"))
    return built


@pytest.mark.parametrize("entry", list(_CHAIN_ENTRY_POINTS))
def test_chain_rule_refusals(entry, monkeypatch):
    # network.check_chain states the rule once: an unknown kind first, then
    # fewer than two sources, each with one class and, for n, one message
    built = _spy_on_builds(monkeypatch)
    call = _CHAIN_ENTRY_POINTS[entry]
    for kind in (KIND_P22, KIND_P14):
        with pytest.raises(ScenarioError) as info:
            call(kind, 1)
        assert str(info.value) == "chain needs at least two sources, got n=1"
    if not entry.startswith("closed_form"):
        with pytest.raises(KindError, match="unknown scenario kind 'p13'"):
            call("p13", 3)
    if entry in _BUILDERS:
        assert built == [], built


def test_singlet_entries():
    rho = singlet()
    want = np.zeros((4, 4))
    want[1, 1] = want[2, 2] = 0.5
    want[1, 2] = want[2, 1] = -0.5
    assert np.allclose(rho, want)
    assert np.isclose(np.trace(rho @ rho), 1.0)  # pure


def test_werner_midpoint_diagonal():
    rho = werner(0.5)
    assert np.allclose(np.diag(rho).real, [0.125, 0.375, 0.375, 0.125])
    assert np.isclose(np.trace(rho), 1.0)


def test_werner_extremes_and_range():
    assert np.allclose(werner(1.0), singlet())
    assert np.allclose(werner(0.0), np.eye(4) / 4)
    with pytest.raises(RangeError):
        werner(1.5)
    with pytest.raises(RangeError):
        werner(-0.1)


def test_end_observables():
    # ends measure along the two diagonal directions (z +- x)/sqrt(2)
    pauli_z = np.diag([1.0, -1.0])
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    plus = end_observable(0)
    minus = end_observable(1)
    assert np.allclose(plus, (pauli_z + pauli_x) / np.sqrt(2.0))
    assert np.allclose(minus, (pauli_z - pauli_x) / np.sqrt(2.0))
    for obs in (plus, minus):
        assert np.allclose(obs @ obs, np.eye(2))
    with pytest.raises(RangeError):
        end_observable(2)


def test_partial_bsm_observables_commute():
    zz = partial_bsm_observable(0)
    xx = partial_bsm_observable(1)
    assert np.allclose(zz, np.kron(np.diag([1, -1]), np.diag([1, -1])))
    assert np.allclose(zz @ xx, xx @ zz)
    for obs in (zz, xx):
        assert np.allclose(obs @ obs, np.eye(4))


def test_bsm_projectors_form_a_measurement():
    projs = bsm_projectors()
    assert len(projs) == 4
    total = sum(projs)
    assert np.allclose(total, np.eye(4))
    for i, p in enumerate(projs):
        assert np.allclose(p @ p, p)
        assert np.isclose(np.trace(p).real, 1.0)  # rank one
        for q in projs[i + 1:]:
            assert np.allclose(p @ q, np.zeros((4, 4)))
    # outcome order: string 2*b0 + b1 where b0, b1 are the joint-parity bits
    zz = partial_bsm_observable(0)
    xx = partial_bsm_observable(1)
    for m, p in enumerate(projs):
        b0, b1 = m >> 1, m & 1
        assert np.allclose(zz @ p, (-1.0) ** b0 * p)
        assert np.allclose(xx @ p, (-1.0) ** b1 * p)


def test_source_state_validation():
    SourceState(werner(0.7), alpha=0.7)
    with pytest.raises(ScenarioError):
        SourceState(np.eye(4))  # trace 4
    with pytest.raises(ScenarioError):
        SourceState(np.eye(2) / 2)  # wrong dimension


def test_standard_scenario_shapes():
    for kind, mids_len in ((KIND_P22, 2), (KIND_P14, 4)):
        sc = standard_scenario(3, kind)
        assert sc.num_parties == 4
        assert len(sc.sources) == 3
        assert len(sc.intermediate_settings) == 2
        assert all(len(ops) == mids_len for ops in sc.intermediate_settings)


def test_standard_scenario_validation():
    with pytest.raises(ScenarioError):
        standard_scenario(1, KIND_P22)
    with pytest.raises(KindError):
        standard_scenario(2, "p99")
    with pytest.raises(ScenarioError):
        standard_scenario(2, KIND_P22, alphas=[0.9])
    with pytest.raises(RangeError):
        standard_scenario(2, KIND_P22, alphas=[0.9, 1.2])


def test_scenario_constructor_checks_operators():
    sc = standard_scenario(2, KIND_P22)
    bad_obs = np.array([[1.0, 0.0], [0.0, -2.0]])  # square != identity
    with pytest.raises(ScenarioError):
        NetworkScenario(
            n=2, kind=KIND_P22, sources=sc.sources,
            end_settings=[[bad_obs, end_observable(1)], sc.end_settings[1]],
            intermediate_settings=sc.intermediate_settings,
        )
    with pytest.raises(ScenarioError):
        NetworkScenario(
            n=2, kind=KIND_P14, sources=sc.sources,
            end_settings=sc.end_settings,
            intermediate_settings=[bsm_projectors()[:3]],  # incomplete
        )


def test_operator_checks_keep_a_relative_tolerance():
    # squares and projector sums are compared with identity at rtol 1e-5
    # (np.allclose's default), Hermiticity at rtol 0
    sc = standard_scenario(2, KIND_P22)

    def with_settings(kind, end_obs, mids):
        return NetworkScenario(n=2, kind=kind, sources=sc.sources,
                               end_settings=[[end_obs, end_observable(1)], sc.end_settings[1]],
                               intermediate_settings=[mids])

    for eps, ok in ((2e-6, True), (1e-4, False)):
        stretched = end_observable(0) * (1.0 + eps)
        scaled = [p * (1.0 + eps) for p in bsm_projectors()]
        for build in (lambda: with_settings(KIND_P22, stretched, sc.intermediate_settings[0]),
                      lambda: with_settings(KIND_P14, end_observable(0), scaled)):
            if ok:
                build()
            else:
                with pytest.raises(ScenarioError):
                    build()


def test_scenario_elements_are_povms():
    for kind in (KIND_P22, KIND_P14):
        sc = standard_scenario(2, kind)
        for party in range(3):
            elements = sc.elements[party]
            for per_input in elements:
                total = sum(per_input)
                dim = total.shape[0]
                assert np.allclose(total, np.eye(dim), atol=1e-12)


def test_scenario_json_round_trip():
    sc = standard_scenario(3, KIND_P14, alphas=[0.9, 0.8, 0.7])
    doc = scenario_to_json(sc)
    assert doc["schema_version"] == 1
    back = scenario_from_json(doc)
    assert back.n == sc.n and back.kind == sc.kind
    assert sc.sources == [0.9, 0.8, 0.7]
    assert [s.alpha for s in back.sources] == sc.sources
    for rho1, rho2 in zip(sc.rhos(), back.rhos()):
        assert np.array_equal(rho1, rho2)
    for o1, o2 in zip(sc.end_settings, back.end_settings):
        for a, b in zip(o1, o2):
            assert np.array_equal(a, b)
    for m1, m2 in zip(sc.intermediate_settings, back.intermediate_settings):
        for a, b in zip(m1, m2):
            assert np.array_equal(a, b)


def test_scenario_takes_a_checked_party_as_it_is(monkeypatch):
    sc = standard_scenario(3, KIND_P22)
    left, mid, right = sc.parties[0], sc.parties[1], sc.parties[-1]
    assert left is right and all(p is mid for p in sc.parties[1:-1])
    assert isinstance(mid, Party) and list(mid) == list(sc.intermediate_settings[0])

    def refuse(*args, **kwargs):
        raise AssertionError("a Party of the right shape is not checked again")

    monkeypatch.setattr(Party, "__new__", refuse)
    again = NetworkScenario(n=3, kind=KIND_P22, sources=[SourceState(werner(0.5)), 0.5, 1],
                            end_settings=[left, right], intermediate_settings=[mid, mid])
    assert all(a is b for a, b in zip(again.parties, sc.parties))
    assert again.sources[1:] == [0.5, 1.0]
    monkeypatch.undo()
    # one of the wrong shape is checked as settings of its slot
    p14_mid = standard_scenario(2, KIND_P14).parties[1]
    for ends, mids, message in (([left, right], [left, mid], "observable must be 4x4, got (2, 2)"),
                                ([left, mid], [mid, mid], "observable must be 2x2, got (4, 4)"),
                                ([left, right], [p14_mid, mid],
                                 "p22 intermediates need two observables")):
        with pytest.raises(ScenarioError) as info:
            NetworkScenario(n=3, kind=KIND_P22, sources=sc.sources, end_settings=ends,
                            intermediate_settings=mids)
        assert str(info.value) == message


def test_scenarios_copy_and_pickle():
    # a copied or unpickled party is checked again, read-only, with its own cache
    sc = standard_scenario(3, KIND_P14, [0.9, 0.8, 0.7])
    for again in (copy.deepcopy(sc), pickle.loads(pickle.dumps(sc))):
        assert [e.tobytes() for e in again.elements] == [e.tobytes() for e in sc.elements]
        assert not any(e.flags.writeable for e in again.elements)
        assert again.parties[0] is again.parties[-1] is not sc.parties[0]
        assert again.sources == sc.sources and again.parties[1].cache == {}


def test_scenario_sources_are_states_or_visibilities():
    sc = standard_scenario(2, KIND_P14)
    for sources, exc in (([0.9, 1.2], RangeError), ([float("nan"), 0.9], RangeError),
                         ([0.9], ScenarioError), ([0.9, np.eye(4) / 4], TypeError)):
        with pytest.raises(exc):
            NetworkScenario(n=2, kind=KIND_P14, sources=sources, end_settings=sc.end_settings,
                            intermediate_settings=sc.intermediate_settings)
    state = SourceState(werner(0.25), alpha=0.25)
    mixed = NetworkScenario(n=2, kind=KIND_P14, sources=[state, 0.25],
                            end_settings=sc.end_settings,
                            intermediate_settings=sc.intermediate_settings)
    assert mixed.sources[0] is state
    assert [r.tobytes() for r in mixed.rhos()] == [werner(0.25).tobytes()] * 2


def test_scenario_json_rejects_unknown_schema():
    doc = scenario_to_json(standard_scenario(2, KIND_P22))
    doc["schema_version"] = 99
    with pytest.raises(ScenarioError):
        scenario_from_json(doc)


# one row per defect and slot: a party's settings with one operator (or the
# list) replaced, the exception type and the exact message.  The ends always
# hold observables; a p22 intermediate holds observables and a p14
# intermediate projectors
_OBSERVABLE_DEFECTS = {
    "non-square": (DimensionError, "expected a square matrix, got shape ({d}, {d1})"),
    "wrong dimension": (ScenarioError, "observable must be {d}x{d}, got ({e}, {e})"),
    "not Hermitian": (ScenarioError, "observable is not Hermitian"),
    "not dichotomic": (ScenarioError, "observable is not dichotomic (square != identity)"),
}
_PROJECTOR_DEFECTS = {
    "non-square": (DimensionError, "expected a square matrix, got shape ({d}, {d1})"),
    "wrong dimension": (ScenarioError, "projector must be {d}x{d}, got ({e}, {e})"),
    "not Hermitian": (ScenarioError, "projector is not Hermitian"),
    "not idempotent": (ScenarioError, "projector is not idempotent"),
    "incomplete projectors": (ScenarioError, "projectors do not sum to the identity"),
}
_COUNT_MESSAGES = {
    "left": "end_settings must hold two observables per end party",
    "right": "end_settings must hold two observables per end party",
    (KIND_P22, "mid"): "p22 intermediates need two observables",
    (KIND_P14, "mid"): "p14 intermediates need four projectors",
}


def _settings_refusals():
    for kind in (KIND_P22, KIND_P14):
        for slot in ("left", "right", "mid"):
            table = _PROJECTOR_DEFECTS if (kind, slot) == (KIND_P14, "mid") else _OBSERVABLE_DEFECTS
            d = 4 if slot == "mid" else 2
            for defect, (exc, message) in table.items():
                yield kind, slot, defect, exc, message.format(d=d, d1=d + 1, e=6 - d)
            count = _COUNT_MESSAGES.get(slot) or _COUNT_MESSAGES[kind, slot]
            yield kind, slot, "wrong count", ScenarioError, count


def _with_defect(kind, slot, defect):
    sc = standard_scenario(2, kind)
    ends = [list(obs) for obs in sc.end_settings]
    mids = [list(ops) for ops in sc.intermediate_settings]
    ops = {"left": ends[0], "right": ends[1], "mid": mids[0]}[slot]
    d = ops[0].shape[0]
    if defect == "non-square":
        ops[0] = np.zeros((d, d + 1))
    elif defect == "wrong dimension":
        ops[0] = np.eye(6 - d)  # 2x2 <-> 4x4
    elif defect == "not Hermitian":
        ops[0] = np.triu(np.ones((d, d)))
    elif defect in ("not dichotomic", "not idempotent"):
        ops[0] = 2.0 * ops[0]  # Hermitian, square 4 B (or 4 P)
    elif defect == "incomplete projectors":
        ops[0] = np.zeros((d, d))  # Hermitian and idempotent, but the sum misses P_0
    else:
        ops.append(ops[0])
    return NetworkScenario(n=2, kind=kind, sources=sc.sources, end_settings=ends,
                           intermediate_settings=mids)


@pytest.mark.parametrize("kind, slot, defect, exc, message", list(_settings_refusals()))
def test_settings_refusal_table(kind, slot, defect, exc, message):
    with pytest.raises(exc) as info:
        _with_defect(kind, slot, defect)
    assert str(info.value) == message


def test_settings_are_checked_ends_first():
    # with defects in several slots, the first in this order is reported: the
    # ends' counts, the left end, the right end, then each intermediate
    sc = standard_scenario(2, KIND_P14)
    left, right = sc.end_settings
    not_hermitian = [np.triu(np.ones((2, 2))), end_observable(1)]
    not_dichotomic = [2.0 * end_observable(0), end_observable(1)]
    not_idempotent = [[2.0 * p for p in bsm_projectors()]]
    three = [bsm_projectors()[:3]]
    for ends, mids, message in (
            ([not_hermitian, not_dichotomic], not_idempotent, "observable is not Hermitian"),
            ([left, not_dichotomic], not_idempotent,
             "observable is not dichotomic (square != identity)"),
            ([not_hermitian, right + right], not_idempotent,
             "end_settings must hold two observables per end party"),
            ([left, not_dichotomic], three, "observable is not dichotomic (square != identity)"),
            ([left, right], three, "p14 intermediates need four projectors")):
        with pytest.raises(ScenarioError) as info:
            NetworkScenario(n=2, kind=KIND_P14, sources=sc.sources, end_settings=ends,
                            intermediate_settings=mids)
        assert str(info.value) == message


def _profile_refusals():
    # (defect, n, profile, exception); the bad value sits at source 1 or at source n
    n = 1000
    yield "too short", n, [0.9] * (n - 1), ScenarioError
    yield "too long", n, [0.9] * (n + 1), ScenarioError
    yield "empty, n = 0", 0, [], ScenarioError
    for value in (float("nan"), -0.1, 1.5):
        for where in (0, n - 1):
            profile = [0.9] * n
            profile[where] = value
            yield f"{value} at source {where + 1}", n, profile, RangeError


_PROFILE_ENTRY_POINTS = {
    "standard_scenario": lambda kind, n, alphas: standard_scenario(n, kind, alphas),
    "werner_IJ": lambda kind, n, alphas: werner_IJ(standard_scenario(n, kind))(alphas),
    "line base": lambda kind, n, alphas: werner_IJ(standard_scenario(n, kind)).line(
        alphas, [0.0] * n),
    "line end": lambda kind, n, alphas: werner_IJ(standard_scenario(n, kind)).line(
        [0.0] * n, alphas),
    "visibility_threshold": lambda kind, n, alphas: visibility_threshold(kind, n, alphas),
}


@pytest.mark.parametrize("entry", sorted(_PROFILE_ENTRY_POINTS))
@pytest.mark.parametrize("kind", (KIND_P22, KIND_P14))
def test_visibility_profile_refusal_table(entry, kind):
    # every entry point that takes a visibility profile refuses each defect
    # with the same type, and in a short message even at n = 1000
    for defect, n, profile, exc in _profile_refusals():
        with pytest.raises(exc) as info:
            _PROFILE_ENTRY_POINTS[entry](kind, n, profile)
        assert len(str(info.value)) < 100, (defect, str(info.value)[:200])


def _malformed_scenario_documents():
    doc = scenario_to_json(standard_scenario(2, KIND_P14, alphas=[0.9, 0.8]))
    yield "not an object", [doc]
    for key in ("n", "kind", "sources", "end_settings", "intermediate_settings"):
        yield f"no {key}", {k: v for k, v in doc.items() if k != key}
    yield "n not a number", {**doc, "n": [2]}
    yield "n infinite", {**doc, "n": float("inf")}
    yield "sources not a list", {**doc, "sources": 2}
    yield "source not an object", {**doc, "sources": [[0.9], doc["sources"][1]]}
    yield "source without rho", {**doc, "sources": [{"alpha": 0.9}, doc["sources"][1]]}
    yield "matrix entry not a pair", {**doc, "end_settings": [[[[1.0]]], doc["end_settings"][1]]}
    yield "matrix entry not numeric", {**doc, "intermediate_settings": [[[[["a", "b"]]]]]}


@pytest.mark.parametrize("label, doc", list(_malformed_scenario_documents()))
def test_scenario_reader_refuses_malformed_documents(label, doc):
    with pytest.raises(ScenarioError):
        scenario_from_json(doc)
