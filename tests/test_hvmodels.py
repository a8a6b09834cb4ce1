"""Hidden-variable models: tightness constructions, sampling, strategy weights."""

import itertools
import math

import numpy as np
import pytest

from netlocal import hvmodels
from netlocal.behavior import alphabets, compute_IJ
from netlocal.errors import DimensionError, KindError, RangeError, ScenarioError, SizeGuardError
from netlocal.hvmodels import (
    NLocalModel,
    behavior_from_weights,
    behavior_of_model,
    check_factorization,
    correlated_sources_example,
    model_IJ,
    model_from_json,
    model_to_json,
    models_IJ,
    q_weights,
    random_mixture_blocks,
    random_model_blocks,
    sample_random_model,
    strategy_IJ,
    tightness_model,
    trial_rng,
)
from netlocal.network import KIND_P14, KIND_P22


def test_behavior_of_model_refuses_before_building_tensors(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the table must be priced before any party tensor is built")

    models = [hvmodels.decomposition_model(kind, 14, 0) for kind in (KIND_P22, KIND_P14)]
    monkeypatch.setattr(hvmodels, "_model_parties", refuse)
    for model in models:
        with pytest.raises(SizeGuardError, match="15-party chain, over"):
            behavior_of_model(model)


def test_model_validation():
    m = tightness_model(KIND_P22, 2, 0.5)
    with pytest.raises(RangeError):
        NLocalModel(n=2, kind=KIND_P22,
                    source_dists=[np.array([0.7, 0.7])] + m.source_dists[1:],
                    responses=m.responses)
    with pytest.raises(DimensionError):
        NLocalModel(n=2, kind=KIND_P22,
                    source_dists=m.source_dists,
                    responses=[m.responses[0][:, :1, :]] + m.responses[1:])
    # NaN must fail each check: every comparison with NaN is False
    with pytest.raises(RangeError):
        NLocalModel(n=2, kind=KIND_P22,
                    source_dists=[np.array([np.nan, 0.5])] + m.source_dists[1:],
                    responses=m.responses)
    nan_row = m.responses[1].copy()
    nan_row[0, 1, 0] = [np.nan, np.nan]
    with pytest.raises(RangeError):
        NLocalModel(n=2, kind=KIND_P22, source_dists=m.source_dists,
                    responses=[m.responses[0], nan_row, m.responses[2]])


def test_model_keeps_its_own_response_list():
    # the caller's list and the nested lists in it stay as given, and a later
    # edit of that list does not reach the validated model
    m = tightness_model(KIND_P22, 2, 0.5)
    resp = [r.tolist() for r in m.responses]
    given = [r.tolist() for r in m.responses]
    model = NLocalModel(n=2, kind=KIND_P22, source_dists=m.source_dists, responses=resp)
    assert model.responses is not resp
    assert all(type(r) is list for r in resp) and resp == given
    resp[0] = None
    assert all(np.array_equal(r, g) for r, g in zip(model.responses, m.responses))


def test_strategy_weights_validation():
    from netlocal.hvmodels import StrategyWeights, strategy_counts
    counts = strategy_counts(KIND_P22, 2)
    StrategyWeights(KIND_P22, 2, np.full(counts, 1.0 / math.prod(counts)))
    for bad in (np.full(counts, np.nan), np.full(counts, 1.0), -np.full(counts, 1.0)):
        with pytest.raises(RangeError):
            StrategyWeights(KIND_P22, 2, bad)


def _uneven_model(kind, n, ks, rng):
    ins, outs = alphabets(kind, n)

    def simplex(*shape):
        e = rng.exponential(size=shape)
        return e / e.sum(axis=-1, keepdims=True)

    responses = ([simplex(ins[0], ks[0], outs[0])]
                 + [simplex(ins[p], ks[p - 1], ks[p], outs[p]) for p in range(1, n)]
                 + [simplex(ins[n], ks[-1], outs[n])])
    return NLocalModel(n=n, kind=kind, source_dists=[simplex(k) for k in ks],
                       responses=responses)


def test_behavior_of_model_matches_brute_force():
    # uneven per-source cardinalities expose a swapped left/right bond axis
    rng = np.random.default_rng(42)
    cases = [(KIND_P22, 2, (2, 2)), (KIND_P22, 2, (1, 3)), (KIND_P22, 3, (2, 1, 3)),
             (KIND_P14, 2, (1, 3)), (KIND_P14, 3, (2, 1, 3)), (KIND_P14, 3, (3, 2, 1))]
    for kind, n, ks in cases:
        model = _uneven_model(kind, n, ks, rng)
        b = behavior_of_model(model)
        ins, outs = alphabets(kind, n)
        for xs in itertools.product(*map(range, ins)):
            for av in itertools.product(*map(range, outs)):
                p = 0.0
                for lams in itertools.product(*map(range, ks)):
                    term = math.prod(d[lam] for d, lam in zip(model.source_dists, lams))
                    term *= model.responses[0][xs[0], lams[0], av[0]]
                    for q in range(1, n):
                        term *= model.responses[q][xs[q], lams[q - 1], lams[q], av[q]]
                    term *= model.responses[n][xs[n], lams[-1], av[n]]
                    p += term
                assert abs(b.prob(xs, av) - p) < 1e-12, (kind, n, ks, xs, av)


def test_tightness_models_hit_the_boundary():
    for kind, n, r in itertools.product((KIND_P22, KIND_P14), (2, 3, 4), (0.0, 0.3, 1.0)):
        I, J = model_IJ(tightness_model(kind, n, r))
        assert abs(I - r ** 2) < 1e-12
        assert abs(J - (1.0 - r) ** 2) < 1e-12
    with pytest.raises(RangeError):
        tightness_model(KIND_P22, 2, 1.5)
    with pytest.raises(KindError):
        tightness_model("p33", 2, 0.5)


def test_model_IJ_matches_behavior_path():
    for kind, n, k in itertools.product((KIND_P22, KIND_P14), (2, 3, 4), (1, 2, 3)):
        for trial in range(3):
            model = sample_random_model(kind, n, k, trial_rng(5, trial))
            fast = model_IJ(model)
            slow = compute_IJ(behavior_of_model(model))
            assert np.allclose(fast, slow, atol=1e-12)


def test_behavior_of_model_needs_no_hidden_product():
    # 8**8 joint hidden states, never formed: the table is 512 x 512
    model = sample_random_model(KIND_P22, 8, 8, 0)
    assert np.allclose(compute_IJ(behavior_of_model(model)), model_IJ(model), rtol=0, atol=1e-12)


def _block_rows(blocks):
    """(trial, source_dists, responses) of every trial in random_model_blocks."""
    for first, dists, responses in blocks:
        for i in range(len(dists[0])):
            yield first + i, [d[i] for d in dists], [r[i] for r in responses]


@pytest.mark.parametrize("budget", [hvmodels.MC_BLOCK_CELLS, 1])
def test_model_blocks_equal_single_model_draws(monkeypatch, budget):
    # a budget of one cell puts every trial in its own block
    monkeypatch.setattr(hvmodels, "MC_BLOCK_CELLS", budget)
    for kind, n, k in itertools.product((KIND_P22, KIND_P14), (2, 3, 4), (1, 2, 3, 4)):
        blocks = random_model_blocks(kind, n, k, 9, 3, 8)
        trials = []
        for trial, dists, responses in _block_rows(blocks):
            model = sample_random_model(kind, n, k, trial_rng(9, trial))
            for a, b in zip(model.source_dists + model.responses, dists + responses):
                assert np.array_equal(a, b), (kind, n, k, trial)
            trials.append(trial)
        assert trials == list(range(3, 8))


def test_model_blocks_are_validated(monkeypatch):
    # a NaN draw must fail the block's row checks, as it fails NLocalModel's
    real = hvmodels._trial_draws

    def poisoned(*args):
        draws = real(*args)
        draws[1, -1] = np.nan
        return draws

    monkeypatch.setattr(hvmodels, "_trial_draws", poisoned)
    with pytest.raises(RangeError):
        list(random_model_blocks(KIND_P22, 2, 2, 0, 0, 4))


def test_models_IJ_matches_table_route_per_trial():
    for kind, n, k in itertools.product((KIND_P22, KIND_P14), (2, 3, 4), (1, 2, 3)):
        for first, dists, responses in random_model_blocks(kind, n, k, 4, 0, 6):
            I, J = models_IJ(kind, n, dists, responses)
            for i in range(len(I)):
                model = NLocalModel(n=n, kind=kind, source_dists=[d[i] for d in dists],
                                    responses=[r[i] for r in responses])
                slow = compute_IJ(behavior_of_model(model))
                assert np.allclose((I[i], J[i]), slow, atol=1e-12), (kind, n, k, first + i)


def test_mixture_blocks_draw_one_row_per_trial(monkeypatch):
    monkeypatch.setattr(hvmodels, "MC_BLOCK_CELLS", 100)
    blocks = list(random_mixture_blocks(64, 6, 2, 9))
    assert [first for first, _ in blocks] == [2, 3, 4, 5, 6, 7, 8]
    for first, q in blocks:
        e = trial_rng(6, first).exponential(size=64)
        assert np.array_equal(q[0], e / e.sum())


# seeds of one to five 32-bit words, and trial ranges from 0 and across 2**32
PINNED_SEEDS = [0, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 96 + 5, 2 ** 130]
PINNED_RANGES = [(0, 6), (2 ** 32 - 3, 2 ** 32 + 3)]


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_trial_words_equal_numpy_seed_sequence(seed):
    for start, stop in PINNED_RANGES + [(2 ** 64 - 2, 2 ** 64)]:
        words = hvmodels._trial_words(seed, start, stop)
        want = [np.random.SeedSequence((seed, t)).generate_state(4, np.uint64)
                for t in range(start, stop)]
        assert words.dtype == np.uint64
        assert np.array_equal(words, want), (seed, start)


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_block_rows_are_the_trial_rng_draws(monkeypatch, seed):
    cells = 11
    want = {t: trial_rng(seed, t).exponential(size=cells)
            for start, stop in PINNED_RANGES for t in range(start, stop)}
    # the blocks reach each stream without trial_rng
    monkeypatch.setattr(hvmodels, "trial_rng", None)
    for start, stop in PINNED_RANGES:
        draws = hvmodels._trial_draws(hvmodels._trial_words(seed, start, stop), cells)
        for row, t in enumerate(range(start, stop)):
            assert np.array_equal(draws[row], want[t]), (seed, t)
        rows = [(first + i, q[i]) for first, q in random_mixture_blocks(cells, seed, start, stop)
                for i in range(len(q))]
        assert [t for t, _ in rows] == list(range(start, stop))
        for t, q in rows:
            assert np.array_equal(q, want[t] / want[t].sum()), (seed, t)


def test_trial_words_refuse_a_negative_seed():
    with pytest.raises(RangeError):
        hvmodels._trial_words(-1, 0, 3)


@pytest.mark.parametrize("length", range(1, 10))
def test_sum_last_equals_numpy_sum(length):
    # strided views cut from a block of flat draws as _simplex_split cuts them
    draws = np.random.default_rng(length).exponential(size=(37, 5 + 6 * length))
    for shape in [(length,), (3, 2, length), (6, length)]:
        e = draws[:, 5:5 + math.prod(shape)].reshape((37,) + shape)
        assert np.array_equal(hvmodels._sum_last(e), e.sum(axis=-1)), shape


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


def test_party_strategy_tables_equal_the_per_strategy_loop():
    for kind in (KIND_P22, KIND_P14):
        for n in (2, 3, 4):
            ins, outs = alphabets(kind, n)
            for party in range(n + 1):
                ni, no = ins[party], outs[party]
                ref = np.zeros((no ** ni, ni, no))
                for s in range(no ** ni):
                    digits = np.unravel_index(s, (no,) * ni)
                    for x in range(ni):
                        ref[s, x, digits[x]] = 1.0
                table = hvmodels.party_strategy_table(kind, n, party)
                assert table.dtype == ref.dtype and table.shape == ref.shape
                assert table.tobytes() == ref.tobytes()


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
    model = tightness_model(KIND_P14, 3, 0.3)
    doc = model_to_json(model)
    assert doc["schema_version"] == 1
    back = model_from_json(doc)
    assert back.n == model.n and back.kind == model.kind
    for d1, d2 in zip(model.source_dists, back.source_dists):
        assert np.array_equal(d1, d2)
    for r1, r2 in zip(model.responses, back.responses):
        assert np.array_equal(r1, r2)
    assert back.note == model.note


def _uneven_model_arrays(kind):
    """A valid n = 3 model's arrays with hidden cardinalities (2, 3, 4), so
    that each bond axis has its own size: uniform sources and responses."""
    ks = (2, 3, 4)
    ins, outs = alphabets(kind, 3)
    bonds = [ks[:1], ks[:2], ks[1:], ks[2:]]
    responses = [np.full((i, *b, o), 1.0 / o) for i, b, o in zip(ins, bonds, outs)]
    return [np.full(k, 1.0 / k) for k in ks], responses


def _bond_refusals():
    for kind in (KIND_P22, KIND_P14):
        _, responses = _uneven_model_arrays(kind)
        for party, r in enumerate(responses):
            for axis in range(1, r.ndim - 1):
                yield kind, party, axis


@pytest.mark.parametrize("kind, party, axis", list(_bond_refusals()))
def test_model_bond_refusal_table(kind, party, axis):
    # one bond one too wide, at each party and bond axis of a valid model
    dists, responses = _uneven_model_arrays(kind)
    NLocalModel(n=3, kind=kind, source_dists=dists, responses=list(responses))
    good = responses[party].shape
    bad = good[:axis] + (good[axis] + 1,) + good[axis + 1:]
    responses[party] = np.full(bad, 1.0 / good[-1])
    with pytest.raises(DimensionError) as info:
        NLocalModel(n=3, kind=kind, source_dists=dists, responses=responses)
    assert str(info.value) == f"response {party} has shape {bad}, expected {good}"


def _malformed_model_documents():
    doc = model_to_json(tightness_model(KIND_P22, 2, 0.3))
    yield "not an object", [doc]
    for key in ("n", "kind", "source_dists", "responses"):
        yield f"no {key}", {k: v for k, v in doc.items() if k != key}
    yield "n not a number", {**doc, "n": "two"}
    yield "n infinite", {**doc, "n": float("inf")}
    yield "source_dists not a list", {**doc, "source_dists": 2}
    yield "ragged responses", {**doc, "responses": [[[0.5], [0.5, 0.5]]] + doc["responses"][1:]}
    yield "non-numeric source", {**doc, "source_dists": [["a", "b"]] + doc["source_dists"][1:]}
    yield "response an object", {**doc, "responses": [{}] + doc["responses"][1:]}


@pytest.mark.parametrize("label, doc", list(_malformed_model_documents()))
def test_model_reader_refuses_malformed_documents(label, doc):
    with pytest.raises(ScenarioError):
        model_from_json(doc)
