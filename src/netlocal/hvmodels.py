"""Hidden-variable models on the chain: evaluation, constructions, weights.

An n-local model assigns each source an independent hidden variable with a
finite distribution; party 1 responds to (x1, lambda_1), intermediate party i
to (x_i, lambda_{i-1}, lambda_i) and party n+1 to (x_last, lambda_n).
Responses may be stochastic; local randomness is part of the response table.

Deterministic strategy weights: enumerating, per party, all deterministic
input->output maps, any model induces a weight for each strategy tuple by
summing source probabilities (stochastic responses decompose into
deterministic ones through an independent local-randomness coordinate per
party, which here is the product decomposition over inputs).  For n = 3 the
independence of the sources forces factorization identities on the weight
marginals; check_factorization measures them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .behavior import Behavior, alphabets, ij_factors
from .errors import DimensionError, RangeError, ScenarioError, SizeGuardError
from .network import KIND_P14, KIND_P22, check_kind

MODEL_SCHEMA_VERSION = 1
HIDDEN_PRODUCT_GUARD = 10 ** 7
STRATEGY_SPACE_GUARD = 10 ** 6
PRNG_ALGORITHM = "numpy-pcg64"

_DIST_ATOL = 1e-10


def _check_dist(v, what):
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DimensionError(f"{what} must be a nonempty 1-D array")
    if v.min() < -1e-12:
        raise RangeError(f"{what} has negative entries")
    if abs(v.sum() - 1.0) > _DIST_ATOL:
        raise RangeError(f"{what} must sum to 1, got {v.sum()}")
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
            if r.min() < -1e-12:
                raise RangeError(f"response {p} has negative entries")
            if np.abs(r.sum(axis=-1) - 1.0).max() > _DIST_ATOL:
                raise RangeError(f"response {p} rows must sum to 1")
            self.responses[p] = r

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self.source_dists)


def behavior_of_model(model: NLocalModel) -> Behavior:
    """Exact finite sum over hidden variables, contracted along the chain."""
    ks = model.cardinalities
    if int(np.prod(ks)) > HIDDEN_PRODUCT_GUARD:
        raise SizeGuardError(f"hidden-state product {np.prod(ks)} exceeds {HIDDEN_PRODUCT_GUARD}")
    n = model.n
    r0 = model.responses[0]
    # arr[x, a, lambda]: weight of the chain prefix
    arr = np.einsum("k,xka->xak", model.source_dists[0], r0)
    for p in range(1, n):
        rp = model.responses[p] * model.source_dists[p][None, None, :, None]
        nx, na = arr.shape[0], arr.shape[1]
        ni, no = rp.shape[0], rp.shape[3]
        # (X, A, k) x (x, k, l, a) -> (X, x, A, a, l)
        arr = np.einsum("XAk,xkla->XxAal", arr, rp)
        arr = arr.reshape(nx * ni, na * no, rp.shape[2])
    rn = model.responses[n]
    table = np.einsum("XAk,xka->XxAa", arr, rn)
    table = table.reshape(table.shape[0] * table.shape[1], -1)
    return Behavior(model.kind, n, table)


def _ij_party_factors(kind: str, n: int, tables) -> list[list[np.ndarray]]:
    """Per-party factors of I and J: for each functional, every party's table
    (input axis first, outcome axis last) contracted with that party's
    weights and signs from behavior.ij_factors."""
    return [[np.einsum("x...a,x,a->...", t, w[p], s[p]) for p, t in enumerate(tables)]
            for w, s in ij_factors(kind, n)]


def model_IJ(model: NLocalModel) -> tuple[float, float]:
    """Signed (I, J) of the model, identical to the finite-sum table values.

    I and J are linear and factorise over the parties, so each response table
    reduces to one factor per functional (a vector over its hidden value at
    the ends, a matrix over its two hidden values in between), and the hidden
    variables are summed by one sweep along the chain.  Equality with
    compute_IJ(behavior_of_model(model)) is exact up to float roundoff.
    """
    out = []
    for factors in _ij_party_factors(model.kind, model.n, model.responses):
        v = model.source_dists[0] * factors[0]
        for p in range(1, model.n):
            v = v @ (factors[p] * model.source_dists[p][None, :])
        out.append(float(v @ factors[-1]))
    return out[0], out[1]


def _end_flip_response(r: float) -> np.ndarray:
    """End response a = lambda xor (eta * x) with P(eta = 0) = r."""
    table = np.zeros((2, 2, 2))
    for x, lam in product((0, 1), repeat=2):
        table[x, lam, lam] += r
        table[x, lam, lam ^ x] += 1.0 - r
    return table


def tightness_model_p22(n: int, r: float) -> NLocalModel:
    """Boundary model hitting I = r**2, J = (1-r)**2 (so sqrt|I|+sqrt|J| = 1).

    Uniform binary sources; each intermediate outputs the XOR of its two
    hidden bits regardless of input; each end outputs its hidden bit, XORed
    with its input when a local coin (heads probability 1-r) says so.
    """
    if not 0.0 <= r <= 1.0:
        raise RangeError(f"r must lie in [0, 1], got {r}")
    uniform = np.array([0.5, 0.5])
    mid = np.zeros((2, 2, 2, 2))
    for x, lam, mu in product((0, 1), repeat=3):
        mid[x, lam, mu, lam ^ mu] = 1.0
    end = _end_flip_response(r)
    return NLocalModel(
        n=n, kind=KIND_P22,
        source_dists=[uniform.copy() for _ in range(n)],
        responses=[end] + [mid.copy() for _ in range(n - 1)] + [end.copy()],
        note=f"tightness r={r}",
    )


def tightness_model_p14(n: int, r: float) -> NLocalModel:
    """p14 boundary model with the same ends as tightness_model_p22.

    Each intermediate announces the diagonal string whose two bits both equal
    the XOR of its hidden bits (string 0 or 3).  Announcing instead a uniform
    choice among all strings whose bit-AND matches the XOR fails to reach the
    boundary (it damps I and J by 2/3 per party), so the diagonal rule is the
    one used; the choice is recorded in the model note.
    """
    if not 0.0 <= r <= 1.0:
        raise RangeError(f"r must lie in [0, 1], got {r}")
    uniform = np.array([0.5, 0.5])
    mid = np.zeros((1, 2, 2, 4))
    for lam, mu in product((0, 1), repeat=2):
        mid[0, lam, mu, 3 * (lam ^ mu)] = 1.0
    end = _end_flip_response(r)
    return NLocalModel(
        n=n, kind=KIND_P14,
        source_dists=[uniform.copy() for _ in range(n)],
        responses=[end] + [mid.copy() for _ in range(n - 1)] + [end.copy()],
        note=f"tightness r={r}, diagonal strings",
    )


def _simplex_sample(rng, shape) -> np.ndarray:
    """Uniform draws from the probability simplex via normalized exponentials."""
    e = rng.exponential(size=shape)
    return e / e.sum(axis=-1, keepdims=True)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """PRNG for one Monte-Carlo trial, derived from (seed, trial index).

    Each trial owns its generator, so results are independent of batching
    and worker count.  Algorithm: numpy PCG64.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), int(trial)))))


def sample_random_model(kind: str, n: int, cardinality: int, rng) -> NLocalModel:
    """Random n-local model: simplex-uniform sources, random responses.

    rng may be an integer seed or a numpy Generator.
    """
    check_kind(kind)
    if n < 2:
        raise ScenarioError(f"chain needs n >= 2, got {n}")
    if cardinality < 1:
        raise RangeError(f"cardinality must be positive, got {cardinality}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(int(rng))
    k = int(cardinality)
    ins, outs = alphabets(kind, n)
    dists = [_simplex_sample(rng, (k,)) for _ in range(n)]
    responses = [_simplex_sample(rng, (ins[0], k, outs[0]))]
    for p in range(1, n):
        responses.append(_simplex_sample(rng, (ins[p], k, k, outs[p])))
    responses.append(_simplex_sample(rng, (ins[n], k, outs[n])))
    return NLocalModel(n=n, kind=kind, source_dists=dists, responses=responses,
                       note=f"random K={k}")


# ---------------------------------------------------------------------------
# deterministic strategies and weight tensors

def strategy_counts(kind: str, n: int) -> tuple[int, ...]:
    """Number of deterministic strategies per party (outputs ** inputs)."""
    ins, outs = alphabets(kind, n)
    return tuple(o ** i for i, o in zip(ins, outs))


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
        if self.weights.min() < -1e-12:
            raise RangeError("strategy weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > 1e-9:
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
    counts = strategy_counts(kind, n)
    if int(np.prod(counts)) > STRATEGY_SPACE_GUARD:
        raise SizeGuardError(f"strategy space {np.prod(counts)} exceeds {STRATEGY_SPACE_GUARD}")
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
    tables = [np.moveaxis(party_strategy_table(kind, n, p), 1, 0) for p in range(n + 1)]
    out = []
    for factors in _ij_party_factors(kind, n, tables):
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
