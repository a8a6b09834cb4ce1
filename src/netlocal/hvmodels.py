"""Hidden-variable models on the chain: evaluation, constructions, weights.

An n-local model assigns each source an independent hidden variable with a
finite distribution; party 1 responds to (x1, lambda_1), intermediate party i
to (x_i, lambda_{i-1}, lambda_i) and party n+1 to (x_last, lambda_n).
Responses may be stochastic; local randomness is part of the response table.
With each source distribution folded into the response of the party on its
left, a model is a chain for the kernel in behavior: behavior_of_model takes
its table from chain_table and model_IJ its I and J from chain_IJ_of.

Random models for Monte-Carlo sweeps are drawn a block of trials at a time:
random_model_blocks gives each trial t one flat exponential draw from
trial_rng(seed, t), splits and normalises the block's draws into arrays with
a leading trial axis, validates them as NLocalModel does, and models_IJ
contracts the whole block at once.  A block holds at most MC_BLOCK_CELLS
drawn cells.  Row t of a block holds exactly the arrays of
sample_random_model(kind, n, K, trial_rng(seed, t)); random_mixture_blocks
draws strategy-tuple weights the same way.

Deterministic strategy weights: enumerating, per party, all deterministic
input->output maps, any model induces a weight for each strategy tuple by
summing source probabilities (stochastic responses decompose into
deterministic ones through an independent local-randomness coordinate per
party, which here is the product decomposition over inputs).  For n = 3 the
independence of the sources forces factorization identities on the weight
marginals; check_factorization measures them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .behavior import Behavior, alphabets, chain_IJ_of, chain_table, ij_factors, party_factors
from .errors import DimensionError, RangeError, ScenarioError, SizeGuardError
from .network import KIND_P22, check_kind

MODEL_SCHEMA_VERSION = 1
HIDDEN_PRODUCT_GUARD = 10 ** 7
STRATEGY_SPACE_GUARD = 10 ** 6
PRNG_ALGORITHM = "numpy-pcg64"
# drawn cells per block of Monte-Carlo trials: 128 KiB of float64.  A sweep
# holds about three blocks' worth at once; larger blocks are no faster
MC_BLOCK_CELLS = 2 ** 14

_DIST_ATOL = 1e-10
_XOR = np.array([[0, 1], [1, 0]])  # _XOR[lam, mu] = lam ^ mu


def _check_rows(a, what):
    """Every entry nonnegative and every slice over the last axis summing
    to 1; any leading axes are checked at once."""
    # written so that NaN fails: every comparison with NaN is False
    if not a.min() >= -1e-12:
        raise RangeError(f"{what} has negative entries")
    worst = np.abs(a.sum(axis=-1) - 1.0).max()
    if not worst <= _DIST_ATOL:
        raise RangeError(f"{what} rows must sum to 1, worst deviation {worst}")


def _check_dist(v, what):
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DimensionError(f"{what} must be a nonempty 1-D array")
    _check_rows(v, what)
    return v


@dataclass(eq=False)
class NLocalModel:
    """Finite hidden-variable model for one chain scenario.

    source_dists[i] is the distribution of source i's hidden variable.
    responses[0] has shape (inputs, K_1, outputs); responses[p] for
    intermediate p has shape (inputs, K_p, K_{p+1}, outputs); responses[n]
    has shape (inputs, K_n, outputs).  Every slice over the last axis is a
    conditional distribution.  note carries free-form provenance (e.g. which
    string rule a construction used).
    """

    n: int
    kind: str
    source_dists: list[np.ndarray]
    responses: list[np.ndarray]
    note: str = ""

    def __post_init__(self):
        check_kind(self.kind)
        if self.n < 2:
            raise ScenarioError(f"chain needs n >= 2, got {self.n}")
        if len(self.source_dists) != self.n:
            raise ScenarioError(f"expected {self.n} source distributions")
        if len(self.responses) != self.n + 1:
            raise ScenarioError(f"expected {self.n + 1} response tables")
        self.source_dists = [_check_dist(v, f"source {i}") for i, v in enumerate(self.source_dists)]
        ins, outs = alphabets(self.kind, self.n)
        ks = self.cardinalities
        for p, r in enumerate(self.responses):
            r = np.asarray(r, dtype=float)
            if p == 0:
                want = (ins[0], ks[0], outs[0])
            elif p == self.n:
                want = (ins[p], ks[-1], outs[p])
            else:
                want = (ins[p], ks[p - 1], ks[p], outs[p])
            if r.shape != want:
                raise DimensionError(f"response {p} has shape {r.shape}, expected {want}")
            _check_rows(r, f"response {p}")
            self.responses[p] = r

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self.source_dists)


def _model_parties(source_dists, responses) -> list[np.ndarray]:
    """A model as a chain of party tensors: each source distribution folded
    into the right bond axis of the party on its left.  The arrays may all
    carry the same leading trial axes; the tensors then keep them."""
    folded = []
    for r, d in zip(responses, source_dists):
        lead = d.shape[:-1]
        folded.append(r * d.reshape(lead + (1,) * (r.ndim - len(lead) - 2) + (-1, 1)))
    return folded + [responses[-1]]


def behavior_of_model(model: NLocalModel) -> Behavior:
    """Exact finite sum over hidden variables, by behavior.chain_table,
    which refuses tables beyond CHAIN_CELL_GUARD cells; the product of the
    hidden cardinalities is never formed."""
    parties = _model_parties(model.source_dists, model.responses)
    return Behavior(model.kind, model.n, chain_table(parties))


def models_IJ(kind: str, n: int, source_dists, responses) -> tuple[np.ndarray, np.ndarray]:
    """Signed (I, J) of a block of models by the functional chain kernel.

    source_dists and responses hold a model's arrays with a leading trial
    axis, as random_model_blocks yields them; one I and one J per trial.
    """
    parties = [np.moveaxis(t, 0, 1) for t in _model_parties(source_dists, responses)]
    return chain_IJ_of(kind, n, parties)


def model_IJ(model: NLocalModel) -> tuple[float, float]:
    """Signed (I, J) of the model, models_IJ of a block of one; equal to
    compute_IJ(behavior_of_model(model)) up to float roundoff."""
    I, J = models_IJ(model.kind, model.n, [d[None] for d in model.source_dists],
                     [r[None] for r in model.responses])
    return float(I[0]), float(J[0])


def _end_flip_response(r: float) -> np.ndarray:
    """End response a = lambda xor (eta * x) with P(eta = 0) = r."""
    table = np.zeros((2, 2, 2))
    for x, lam in product((0, 1), repeat=2):
        table[x, lam, lam] += r
        table[x, lam, lam ^ x] += 1.0 - r
    return table


def tightness_model(kind: str, n: int, r: float) -> NLocalModel:
    """Boundary model hitting I = r**2, J = (1-r)**2 (so sqrt|I|+sqrt|J| = 1).

    Uniform binary sources; each end outputs its hidden bit, XORed with its
    input when a local coin (heads probability 1-r) says so.  An
    intermediate outputs the XOR of its hidden bits regardless of input
    (p22), or announces the diagonal string whose two bits both equal that
    XOR, string 0 or 3 (p14).  Announcing instead a uniform choice among all
    strings whose bit-AND matches the XOR fails to reach the boundary (it
    damps I and J by 2/3 per party), so the diagonal rule is the one used;
    the choice is recorded in the p14 model note.
    """
    check_kind(kind)
    if not 0.0 <= r <= 1.0:
        raise RangeError(f"r must lie in [0, 1], got {r}")
    if kind == KIND_P22:
        mid, note = np.eye(2)[np.stack([_XOR, _XOR])], f"tightness r={r}"
    else:
        mid, note = np.eye(4)[3 * _XOR][None], f"tightness r={r}, diagonal strings"
    end = _end_flip_response(r)
    return NLocalModel(
        n=n, kind=kind,
        source_dists=[np.array([0.5, 0.5]) for _ in range(n)],
        responses=[end] + [mid.copy() for _ in range(n - 1)] + [end.copy()],
        note=note,
    )


def decomposition_model(kind: str, n: int, which: int) -> NLocalModel:
    """P_I (which = 0) at (I, J) = (-1, 0) or P_J (which = 1) at (0, -1): the
    n-local models whose even mixture is the analytic quantum point.

    Uniform binary sources; each end outputs its hidden bit, XORed with its
    input for P_J, and the last end flips it.  An intermediate outputs the
    XOR of its hidden bits at input `which` (p22), or as bit `which` of its
    string 2*b0 + b1 (p14), with a fair local coin for the other one.
    """
    check_kind(kind)
    if which not in (0, 1):
        raise RangeError(f"which must be 0 (P_I) or 1 (P_J), got {which}")
    end = _end_flip_response(1.0 - which)
    if kind == KIND_P22:
        mid = np.full((2, 2, 2, 2), 0.5)
        mid[which] = np.eye(2)[_XOR]
    else:
        bit = (np.arange(4) >> (1 - which)) & 1  # bit `which` of each string
        mid = 0.5 * (bit == _XOR[..., None])[None]
    return NLocalModel(
        n=n, kind=kind,
        source_dists=[np.array([0.5, 0.5]) for _ in range(n)],
        responses=[end] + [mid.copy() for _ in range(n - 1)] + [end[..., ::-1].copy()],
        note=f"decomposition {'P_J' if which else 'P_I'}",
    )


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """PRNG for one Monte-Carlo trial, derived from (seed, trial index).

    Each trial owns its generator, so results are independent of batching
    and worker count.  Algorithm: numpy PCG64.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), int(trial)))))


def _trial_draws(seed: int, start: int, stop: int, cells: int) -> np.ndarray:
    """(stop - start, cells) exponential draws; row t - start is the one
    flat draw of trial t from trial_rng(seed, t)."""
    draws = np.empty((stop - start, cells))
    for row, trial in enumerate(range(start, stop)):
        draws[row] = trial_rng(seed, trial).exponential(size=cells)
    return draws


def _simplex_split(draws: np.ndarray, shapes) -> list[np.ndarray]:
    """Cut the last axis of draws into consecutive arrays of the given
    shapes, each normalised in place over its own last axis: uniform points
    of the probability simplex.  Leading axes are kept."""
    lead = draws.shape[:-1]
    arrays = []
    start = 0
    for shape in shapes:
        stop = start + math.prod(shape)
        e = draws[..., start:stop].reshape(lead + shape)
        e /= e.sum(axis=-1, keepdims=True)
        arrays.append(e)
        start = stop
    return arrays


def _random_model_shapes(kind: str, n: int, cardinality: int) -> list[tuple[int, ...]]:
    """Shapes of a random model's arrays in draw order: the n source
    distributions, then the n + 1 response tables.  Response tables of more
    than HIDDEN_PRODUCT_GUARD cells in all are refused."""
    check_kind(kind)
    if n < 2:
        raise ScenarioError(f"chain needs n >= 2, got {n}")
    if cardinality < 1:
        raise RangeError(f"cardinality must be positive, got {cardinality}")
    k = int(cardinality)
    ins, outs = alphabets(kind, n)
    responses = ([(ins[0], k, outs[0])] + [(ins[p], k, k, outs[p]) for p in range(1, n)]
                 + [(ins[n], k, outs[n])])
    cells = sum(math.prod(shape) for shape in responses)
    if cells > HIDDEN_PRODUCT_GUARD:
        raise SizeGuardError(f"response tables need {cells} cells, over {HIDDEN_PRODUCT_GUARD}")
    return [(k,)] * n + responses


def sample_random_model(kind: str, n: int, cardinality: int, rng) -> NLocalModel:
    """Random n-local model: simplex-uniform sources, random responses.

    rng may be an integer seed or a numpy Generator; one flat exponential
    draw fills every array.  Response tables of more than
    HIDDEN_PRODUCT_GUARD cells in all are refused before any draw.
    """
    shapes = _random_model_shapes(kind, n, cardinality)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(int(rng))
    arrays = _simplex_split(rng.exponential(size=sum(map(math.prod, shapes))), shapes)
    return NLocalModel(n=n, kind=kind, source_dists=arrays[:n], responses=arrays[n:],
                       note=f"random K={int(cardinality)}")


def _block_bounds(start: int, stop: int, cells: int):
    """Consecutive [a, b) blocks of trials start..stop-1 holding at most
    MC_BLOCK_CELLS drawn cells each (one trial at the least)."""
    step = max(1, MC_BLOCK_CELLS // cells)
    return ((a, min(a + step, stop)) for a in range(start, stop, step))


def random_model_blocks(kind: str, n: int, cardinality: int, seed: int, start: int, stop: int):
    """Random models of trials start..stop-1, a block at a time.

    Yields (first_trial, source_dists, responses) with a leading trial axis
    on every array; row t - first_trial holds exactly the arrays of
    sample_random_model(kind, n, cardinality, trial_rng(seed, t)), checked
    as NLocalModel checks them.  Oversized models are refused before any
    draw, as by sample_random_model.
    """
    shapes = _random_model_shapes(kind, n, cardinality)
    cells = sum(map(math.prod, shapes))
    for a, b in _block_bounds(start, stop, cells):
        arrays = _simplex_split(_trial_draws(seed, a, b, cells), shapes)
        for i, arr in enumerate(arrays):
            _check_rows(arr, f"source {i}" if i < n else f"response {i - n}")
        yield a, arrays[:n], arrays[n:]


def random_mixture_blocks(size: int, seed: int, start: int, stop: int):
    """Uniform random weights over `size` strategy tuples for trials
    start..stop-1, a block at a time: yields (first_trial, q) with one row
    of q per trial, from one flat draw of trial_rng(seed, t) each."""
    for a, b in _block_bounds(start, stop, size):
        (q,) = _simplex_split(_trial_draws(seed, a, b, size), [(size,)])
        yield a, q


# ---------------------------------------------------------------------------
# deterministic strategies and weight tensors

def strategy_counts(kind: str, n: int) -> tuple[int, ...]:
    """Number of deterministic strategies per party (outputs ** inputs)."""
    ins, outs = alphabets(kind, n)
    return tuple(o ** i for i, o in zip(ins, outs))


def _check_strategy_space(kind: str, n: int) -> None:
    """Refuse more than STRATEGY_SPACE_GUARD strategy tuples (4**(n+1) for
    both kinds, so n <= 8) before any table is built."""
    tuples = math.prod(strategy_counts(kind, n))
    if tuples > STRATEGY_SPACE_GUARD:
        raise SizeGuardError(f"strategy space {tuples} exceeds {STRATEGY_SPACE_GUARD}")


def party_strategy_table(kind: str, n: int, party: int) -> np.ndarray:
    """Indicator tensor T[s, x, a] = 1 iff strategy s maps input x to a.

    Strategies enumerate outputs-per-input tuples in row-major order, so
    strategy s answers input x with digit x of s in base num_outputs.
    """
    ins, outs = alphabets(kind, n)
    ni, no = ins[party], outs[party]
    count = no ** ni
    t = np.zeros((count, ni, no))
    for s in range(count):
        digits = np.unravel_index(s, (no,) * ni)
        for x in range(ni):
            t[s, x, digits[x]] = 1.0
    return t


@dataclass(eq=False)
class StrategyWeights:
    """Joint weights over deterministic strategy tuples, one axis per party."""

    kind: str
    n: int
    weights: np.ndarray

    def __post_init__(self):
        check_kind(self.kind)
        want = strategy_counts(self.kind, self.n)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != want:
            raise DimensionError(f"weights shape {self.weights.shape}, expected {want}")
        if not self.weights.min() >= -1e-12:
            raise RangeError("strategy weights must be nonnegative")
        if not abs(self.weights.sum() - 1.0) <= 1e-9:
            raise RangeError(f"strategy weights must sum to 1, got {self.weights.sum()}")


def _party_strategy_weights(model: NLocalModel, party: int) -> np.ndarray:
    """w[lambda..., s]: probability that the party's (product-decomposed)
    deterministic strategy is s, given its adjacent hidden values."""
    r = model.responses[party]
    ni = r.shape[0]
    no = r.shape[-1]
    # outer product over inputs of the per-input output distributions
    w = r[0]
    for x in range(1, ni):
        w = w[..., :, None] * r[x][..., None, :]
        w = w.reshape(*w.shape[:-2], -1)
    return w.reshape(*r.shape[1:-1], no ** ni)


def q_weights_joint(kind: str, n: int, joint: np.ndarray, responses) -> StrategyWeights:
    """Strategy-tuple weights for an arbitrary joint hidden-source law.

    joint has one axis per source.  This is the engine behind q_weights and
    also admits deliberately correlated sources, which break the
    factorization identities that independent sources enforce.
    """
    _check_strategy_space(kind, n)
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != n:
        raise DimensionError(f"joint law needs {n} axes, got {joint.ndim}")
    if int(np.prod(joint.shape)) > HIDDEN_PRODUCT_GUARD:
        raise SizeGuardError("hidden-state product exceeds guard")
    model_like = NLocalModel(
        n=n, kind=kind,
        source_dists=[np.full(k, 1.0 / k) for k in joint.shape],
        responses=[np.asarray(r, dtype=float) for r in responses],
    )
    tables = [_party_strategy_weights(model_like, p) for p in range(n + 1)]

    lam = [chr(ord("A") + i) for i in range(n)]
    out = [chr(ord("a") + i) for i in range(n + 1)]
    terms = ["".join(lam)]
    operands = [joint]
    terms.append(lam[0] + out[0])
    operands.append(tables[0])
    for p in range(1, n):
        terms.append(lam[p - 1] + lam[p] + out[p])
        operands.append(tables[p])
    terms.append(lam[-1] + out[-1])
    operands.append(tables[-1])
    spec = ",".join(terms) + "->" + "".join(out)
    q = np.einsum(spec, *operands, optimize=True)
    return StrategyWeights(kind, n, q)


def q_weights(model: NLocalModel) -> StrategyWeights:
    """Deterministic-strategy weights induced by an n-local model."""
    joint = model.source_dists[0]
    for d in model.source_dists[1:]:
        joint = np.multiply.outer(joint, d)
    return q_weights_joint(model.kind, model.n, joint, model.responses)


def behavior_from_weights(w: StrategyWeights) -> Behavior:
    """Behavior of the local mixture defined by strategy-tuple weights."""
    n = w.n
    tables = [party_strategy_table(w.kind, n, p) for p in range(n + 1)]
    lam = [chr(ord("A") + i) for i in range(n + 1)]
    xs = [chr(ord("a") + i) for i in range(n + 1)]
    outs = [chr(ord("n") + i) for i in range(n + 1)]
    terms = ["".join(lam)] + [lam[p] + xs[p] + outs[p] for p in range(n + 1)]
    spec = ",".join(terms) + "->" + "".join(xs) + "".join(outs)
    t = np.einsum(spec, w.weights, *tables, optimize=True)
    ins_sz, outs_sz = alphabets(w.kind, n)
    return Behavior(w.kind, n, t.reshape(int(np.prod(ins_sz)), int(np.prod(outs_sz))))


@dataclass
class FactorizationReport:
    """Max absolute deviations of the three trilocal marginal identities."""

    no_second: float   # q(s1, s3, s4) vs q(s1) q(s3, s4)
    no_third: float    # q(s1, s2, s4) vs q(s1, s2) q(s4)
    ends_only: float   # q(s1, s4) vs q(s1) q(s4)

    @property
    def worst(self) -> float:
        return max(self.no_second, self.no_third, self.ends_only)

    def to_json(self) -> dict:
        return {"no_second": self.no_second, "no_third": self.no_third,
                "ends_only": self.ends_only, "worst": self.worst}


def check_factorization(w: StrategyWeights) -> FactorizationReport:
    """Measure the n=3 independence identities on strategy-weight marginals.

    For a model with independent sources, party 1 depends only on source 1
    and parties 3, 4 only on sources 2, 3, so q(s1, s3, s4) = q(s1) q(s3, s4);
    symmetrically q(s1, s2, s4) = q(s1, s2) q(s4), and q(s1, s4) = q(s1) q(s4).
    Correlated sources violate these even when the behavior itself looks tame.
    """
    if w.n != 3:
        raise ScenarioError(f"factorization identities are for n=3, got n={w.n}")
    q = w.weights
    q1 = q.sum(axis=(1, 2, 3))
    q4 = q.sum(axis=(0, 1, 2))
    q12 = q.sum(axis=(2, 3))
    q34 = q.sum(axis=(0, 1))
    q134 = q.sum(axis=1)
    q124 = q.sum(axis=2)
    q14 = q.sum(axis=(1, 2))
    no_second = float(np.abs(q134 - np.einsum("a,cd->acd", q1, q34)).max())
    no_third = float(np.abs(q124 - np.einsum("ab,d->abd", q12, q4)).max())
    ends_only = float(np.abs(q14 - np.outer(q1, q4)).max())
    return FactorizationReport(no_second, no_third, ends_only)


def correlated_sources_example(n: int = 3) -> StrategyWeights:
    """Strategy weights from a non-product hidden law (first = last source).

    Ends announce their hidden bit, intermediates the XOR of theirs.  The
    shared bit makes q(s1, s4) concentrate on equal constant strategies,
    violating the ends_only identity by 1/4.
    """
    if n != 3:
        raise ScenarioError("the shipped example is for n=3")
    joint = np.zeros((2, 2, 2))
    for lam1, lam2 in product((0, 1), repeat=2):
        joint[lam1, lam2, lam1] = 0.25
    copy_end = np.zeros((2, 2, 2))
    for x, lam in product((0, 1), repeat=2):
        copy_end[x, lam, lam] = 1.0
    mid = np.zeros((2, 2, 2, 2))
    for x, lam, mu in product((0, 1), repeat=3):
        mid[x, lam, mu, lam ^ mu] = 1.0
    responses = [copy_end, mid, mid.copy(), copy_end.copy()]
    return q_weights_joint(KIND_P22, n, joint, responses)


# ---------------------------------------------------------------------------
# per-strategy-tuple correlator values (used by the local-mixture sweep)

def strategy_IJ(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(I, J) of every deterministic strategy tuple, flattened in tuple order.

    A tuple's correlator factorises over the parties, so each functional is
    the outer product of one factor per party: its strategy table contracted
    with the party's weights and signs from behavior.ij_factors.
    """
    _check_strategy_space(kind, n)
    tables = [np.moveaxis(party_strategy_table(kind, n, p), 1, 0) for p in range(n + 1)]
    out = []
    for weights, signs in ij_factors(kind, n):
        factors = party_factors(tables, weights, signs)
        v = factors[0]
        for f in factors[1:]:
            v = np.multiply.outer(v, f)
        out.append(v.reshape(-1))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# serialization

def model_to_json(model: NLocalModel) -> dict:
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": model.kind,
        "n": model.n,
        "cardinalities": list(model.cardinalities),
        "source_dists": [d.tolist() for d in model.source_dists],
        "responses": [r.tolist() for r in model.responses],
        "note": model.note,
    }


def model_from_json(doc: dict) -> NLocalModel:
    version = doc.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ScenarioError(f"unsupported model schema version {version!r}")
    return NLocalModel(
        n=int(doc["n"]),
        kind=check_kind(doc["kind"]),
        source_dists=[np.asarray(d, dtype=float) for d in doc["source_dists"]],
        responses=[np.asarray(r, dtype=float) for r in doc["responses"]],
        note=str(doc.get("note", "")),
    )
