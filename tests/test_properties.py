"""Property tests of the core: chain kernel against its oracles, symmetries of
the bound values, linearity of mixtures, exact file round trips.

Each example draws a kind, a chain length and a seed; the seed drives a numpy
generator for the arrays.  Runs are derandomized and keep no example
database, so the suite is deterministic and writes nothing into the checkout.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from netlocal.behavior import (
    alphabets,
    behavior_from_json,
    behavior_to_json,
    bound_values,
    compute_IJ,
    load_behavior_csv,
    mix_behaviors,
    save_behavior_csv,
)
from netlocal.evaluator import evaluate_chain, evaluate_naive, relabel_outputs
from netlocal.hvmodels import NLocalModel, behavior_of_model, model_IJ
from netlocal.network import (
    KIND_P14,
    KIND_P22,
    NetworkScenario,
    SourceState,
    standard_scenario,
)

# hypothesis caches the constants of local modules on disk, example database
# or not, from test collection on; keep that cache out of the checkout
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "netlocal-hypothesis")

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=15)

kinds = st.sampled_from((KIND_P22, KIND_P14))
seeds = st.integers(0, 2 ** 32 - 1)


def _haar_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _density_matrix(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_scenario(kind, n, rng):
    """Random mixed sources; every party's standard settings conjugated by
    its own Haar-random unitary."""
    sc = standard_scenario(n, kind)
    ends = []
    for obs in sc.end_settings:
        u = _haar_unitary(rng, 2)
        ends.append([u @ o @ u.conj().T for o in obs])
    mids = []
    for ops in sc.intermediate_settings:
        u = _haar_unitary(rng, 4)
        mids.append([u @ o @ u.conj().T for o in ops])
    return NetworkScenario(n=n, kind=kind,
                           sources=[SourceState(_density_matrix(rng)) for _ in range(n)],
                           end_settings=ends, intermediate_settings=mids)


def _random_model(kind, n, ks, rng):
    ins, outs = alphabets(kind, n)

    def simplex(*shape):
        e = rng.exponential(size=shape)
        return e / e.sum(axis=-1, keepdims=True)

    responses = ([simplex(ins[0], ks[0], outs[0])]
                 + [simplex(ins[p], ks[p - 1], ks[p], outs[p]) for p in range(1, n)]
                 + [simplex(ins[n], ks[-1], outs[n])])
    return NLocalModel(n=n, kind=kind, source_dists=[simplex(k) for k in ks],
                       responses=responses)


@st.composite
def models(draw, max_n=4):
    kind = draw(kinds)
    n = draw(st.integers(2, max_n))
    ks = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return _random_model(kind, n, ks, np.random.default_rng(draw(seeds)))


def _chain_equals_naive(kind, n, seed):
    sc = _random_scenario(kind, n, np.random.default_rng(seed))
    assert np.abs(evaluate_chain(sc).table - evaluate_naive(sc).table).max() < 1e-13


@SETTINGS
@given(kinds, st.integers(2, 3), seeds)
def test_chain_equals_naive_on_random_scenarios(kind, n, seed):
    _chain_equals_naive(kind, n, seed)


@pytest.mark.parametrize("kind", [KIND_P22, KIND_P14])
@SETTINGS
@given(seeds)
def test_chain_equals_naive_at_n4(kind, seed):
    _chain_equals_naive(kind, 4, seed)


@SETTINGS
@given(models())
def test_model_IJ_equals_table_route(model):
    assert np.allclose(model_IJ(model), compute_IJ(behavior_of_model(model)),
                       rtol=0.0, atol=1e-13)


@SETTINGS
@given(models(max_n=3), st.data())
def test_abs_IJ_invariant_under_outcome_bit_flips(model, data):
    b = behavior_of_model(model)
    _, outs = alphabets(model.kind, model.n)
    flipped = b
    for party, size in enumerate(outs):
        # p22 parties and p14 ends swap 0 <-> 1; a p14 intermediate XORs its
        # two-bit string with a mask
        mask = data.draw(st.integers(0, size - 1))
        flipped = relabel_outputs(flipped, party, tuple(a ^ mask for a in range(size)))
    I, J = compute_IJ(b)
    I_f, J_f = compute_IJ(flipped)
    assert abs(abs(I) - abs(I_f)) < 1e-13 and abs(abs(J) - abs(J_f)) < 1e-13
    before, after = bound_values(I, J), bound_values(I_f, J_f)
    assert abs(before.nlocal_value - after.nlocal_value) < 1e-12
    assert abs(before.local_value - after.local_value) < 1e-12


@SETTINGS
@given(kinds, st.integers(2, 3), seeds, st.floats(0.0, 1.0))
def test_mix_behaviors_is_linear(kind, n, seed, w):
    rng = np.random.default_rng(seed)
    b1, b2 = (behavior_of_model(_random_model(kind, n, (2,) * n, rng)) for _ in range(2))
    mixed = mix_behaviors([w, 1.0 - w], [b1, b2])
    assert np.abs(mixed.table - (w * b1.table + (1.0 - w) * b2.table)).max() < 1e-15
    IJ1, IJ2 = np.array(compute_IJ(b1)), np.array(compute_IJ(b2))
    assert np.allclose(compute_IJ(mixed), w * IJ1 + (1.0 - w) * IJ2, rtol=0.0, atol=1e-13)


@SETTINGS
@given(models(max_n=3))
def test_json_and_csv_round_trips_are_exact(tmp_path_factory, model):
    b = behavior_of_model(model)
    back = behavior_from_json(json.loads(json.dumps(behavior_to_json(b))))
    assert (back.kind, back.n) == (b.kind, b.n)
    assert np.array_equal(back.table, b.table)
    path = tmp_path_factory.mktemp("round_trip") / "b.csv"
    save_behavior_csv(b, path)
    assert np.array_equal(load_behavior_csv(path, b.kind, b.n).table, b.table)
