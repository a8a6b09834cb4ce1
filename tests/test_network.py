"""Scenario construction: states, settings, validation, JSON round trips."""

import numpy as np
import pytest

from netlocal.errors import KindError, RangeError, ScenarioError
from netlocal.network import (
    KIND_P14,
    KIND_P22,
    NetworkScenario,
    SourceState,
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
    for s1, s2 in zip(sc.sources, back.sources):
        assert np.array_equal(s1.rho, s2.rho)
        assert s1.alpha == s2.alpha
    for o1, o2 in zip(sc.end_settings, back.end_settings):
        for a, b in zip(o1, o2):
            assert np.array_equal(a, b)
    for m1, m2 in zip(sc.intermediate_settings, back.intermediate_settings):
        for a, b in zip(m1, m2):
            assert np.array_equal(a, b)


def test_scenario_json_rejects_unknown_schema():
    doc = scenario_to_json(standard_scenario(2, KIND_P22))
    doc["schema_version"] = 99
    with pytest.raises(ScenarioError):
        scenario_from_json(doc)
