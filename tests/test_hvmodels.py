"""Hidden-variable models: tightness constructions, sampling, strategy weights."""

import itertools

import numpy as np
import pytest

from netlocal.behavior import compute_IJ
from netlocal.errors import DimensionError, RangeError, ScenarioError
from netlocal.hvmodels import (
    NLocalModel,
    behavior_from_weights,
    behavior_of_model,
    check_factorization,
    correlated_sources_example,
    model_IJ,
    model_from_json,
    model_to_json,
    q_weights,
    sample_random_model,
    strategy_IJ,
    tightness_model_p14,
    tightness_model_p22,
    trial_rng,
)
from netlocal.network import KIND_P14, KIND_P22


def test_model_validation():
    m = tightness_model_p22(2, 0.5)
    with pytest.raises(RangeError):
        NLocalModel(n=2, kind=KIND_P22,
                    source_dists=[np.array([0.7, 0.7])] + m.source_dists[1:],
                    responses=m.responses)
    with pytest.raises(DimensionError):
        NLocalModel(n=2, kind=KIND_P22,
                    source_dists=m.source_dists,
                    responses=[m.responses[0][:, :1, :]] + m.responses[1:])


def test_behavior_of_model_matches_brute_force():
    model = sample_random_model(KIND_P22, 2, 2, trial_rng(42, 0))
    b = behavior_of_model(model)
    k1, k2 = (d.size for d in model.source_dists)
    r0, r1, r2 = model.responses
    for xs in itertools.product((0, 1), repeat=3):
        for outs in itertools.product((0, 1), repeat=3):
            p = 0.0
            for l1 in range(k1):
                for l2 in range(k2):
                    p += (model.source_dists[0][l1] * model.source_dists[1][l2]
                          * r0[xs[0], l1, outs[0]]
                          * r1[xs[1], l1, l2, outs[1]]
                          * r2[xs[2], l2, outs[2]])
            assert abs(b.prob(xs, outs) - p) < 1e-12


def test_tightness_models_hit_the_boundary():
    for kind, make in ((KIND_P22, tightness_model_p22),
                       (KIND_P14, tightness_model_p14)):
        for n in (2, 3, 4):
            for r in (0.0, 0.3, 1.0):
                I, J = model_IJ(make(n, r))
                assert abs(I - r ** 2) < 1e-12
                assert abs(J - (1.0 - r) ** 2) < 1e-12
    with pytest.raises(RangeError):
        tightness_model_p22(2, 1.5)


def test_model_IJ_matches_behavior_path():
    for kind, n, k in itertools.product((KIND_P22, KIND_P14), (2, 3, 4), (1, 2, 3)):
        for trial in range(3):
            model = sample_random_model(kind, n, k, trial_rng(5, trial))
            fast = model_IJ(model)
            slow = compute_IJ(behavior_of_model(model))
            assert np.allclose(fast, slow, atol=1e-12)


def test_trial_rng_is_reproducible_and_distinct():
    a = trial_rng(10, 3).random(5)
    b = trial_rng(10, 3).random(5)
    c = trial_rng(10, 4).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampled_models_are_valid_and_seeded():
    m1 = sample_random_model(KIND_P14, 3, 4, trial_rng(0, 7))
    m2 = sample_random_model(KIND_P14, 3, 4, trial_rng(0, 7))
    for d1, d2 in zip(m1.source_dists, m2.source_dists):
        assert np.array_equal(d1, d2)
    b = behavior_of_model(m1)
    assert np.abs(b.table.sum(axis=1) - 1.0).max() < 1e-10


def test_q_weights_reproduce_the_behavior():
    for kind in (KIND_P22, KIND_P14):
        model = sample_random_model(kind, 3, 2, trial_rng(21, 0))
        w = q_weights(model)
        assert abs(w.weights.sum() - 1.0) < 1e-9
        direct = behavior_of_model(model)
        via_weights = behavior_from_weights(w)
        assert np.abs(direct.table - via_weights.table).max() < 1e-12


def test_factorization_holds_for_independent_sources():
    for kind in (KIND_P22, KIND_P14):
        model = sample_random_model(kind, 3, 3, trial_rng(33, 1))
        report = check_factorization(q_weights(model))
        assert report.worst < 1e-12


def test_factorization_needs_n3():
    w = q_weights(sample_random_model(KIND_P22, 2, 2, trial_rng(0, 0)))
    with pytest.raises(ScenarioError):
        check_factorization(w)


def test_correlated_sources_break_factorization():
    report = check_factorization(correlated_sources_example(3))
    assert report.ends_only > 0.01
    assert abs(report.ends_only - 0.25) < 1e-12
    assert report.worst >= report.ends_only


def test_strategy_IJ_agrees_with_point_mass_weights():
    from netlocal.hvmodels import StrategyWeights, strategy_counts
    for kind, n in itertools.product((KIND_P22, KIND_P14), (2, 3)):
        vi, vj = strategy_IJ(kind, n)
        counts = strategy_counts(kind, n)
        rng = np.random.default_rng(2)
        for flat in rng.choice(vi.size, size=4, replace=False):
            w = np.zeros(counts)
            w[np.unravel_index(flat, counts)] = 1.0
            I, J = compute_IJ(behavior_from_weights(StrategyWeights(kind, n, w)))
            assert abs(I - vi[flat]) < 1e-12
            assert abs(J - vj[flat]) < 1e-12


def test_model_json_round_trip():
    model = tightness_model_p14(3, 0.3)
    doc = model_to_json(model)
    assert doc["schema_version"] == 1
    back = model_from_json(doc)
    assert back.n == model.n and back.kind == model.kind
    for d1, d2 in zip(model.source_dists, back.source_dists):
        assert np.array_equal(d1, d2)
    for r1, r2 in zip(model.responses, back.responses):
        assert np.array_equal(r1, r2)
    assert back.note == model.note
