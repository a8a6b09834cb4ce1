"""Hidden-variable models on the chain: evaluation, constructions, weights.

An n-local model assigns each source an independent hidden variable with a
finite distribution; party 1 responds to (x1, lambda_1), intermediate party i
to (x_i, lambda_{i-1}, lambda_i) and party n+1 to (x_last, lambda_n).
Responses may be stochastic; local randomness is part of the response table.
With each source distribution folded into the response of the party on its
left, a model is a chain for the kernel in behavior: behavior_of_model takes
its table from chain_table and model_IJ its I and J from chain_IJ_of.

Random models for Monte-Carlo sweeps are drawn a block of trials at a time:
random_model_blocks gives each trial t one flat exponential draw from the
stream of trial_rng(seed, t), splits and normalises the block's draws into
arrays with a leading trial axis, validates them as NLocalModel does, and
models_IJ contracts the whole block at once.  A block holds at most
MC_BLOCK_CELLS drawn cells.  Row t of a block holds exactly the arrays of
sample_random_model(kind, n, K, trial_rng(seed, t)); random_mixture_blocks
draws strategy-tuple weights the same way.  trial_rng stays the reference
definition of a trial's stream; the blocks reach the same PCG64 states
without a SeedSequence per trial, by a vectorised copy of numpy's
SeedSequence hash (_trial_words, pinned against numpy by the tests) that
derives the seeds of a run of whole blocks at once.

Deterministic strategy weights: enumerating, per party, all deterministic
input->output maps, any model induces a weight for each strategy tuple by
summing source probabilities (stochastic responses decompose into
deterministic ones through an independent local-randomness coordinate per
party, which here is the product decomposition over inputs).  For n = 3 the
independence of the sources forces factorization identities on the weight
marginals; check_factorization measures them.
"""

from __future__ import annotations

import functools
import math
import operator
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


def _sum_last(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1), bit for bit.  Below 8 entries numpy adds them left to
    right, so a short axis is summed slice by slice, which costs a few
    array operations instead of a strided reduction per row."""
    if not 1 <= a.shape[-1] < 8:
        return a.sum(axis=-1)
    total = a[..., 0].copy()
    for i in range(1, a.shape[-1]):
        total += a[..., i]
    return total


def _check_rows(a, what):
    """Every entry nonnegative and every slice over the last axis summing
    to 1; any leading axes are checked at once."""
    # written so that NaN fails: every comparison with NaN is False
    if not a.min() >= -1e-12:
        raise RangeError(f"{what} has negative entries")
    worst = np.abs(_sum_last(a) - 1.0).max()
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


# numpy's SeedSequence hash (numpy.random.bit_generator): uint32 arithmetic
# with constants that do not depend on the data
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_walk(init: int, mult: int, calls: int) -> np.ndarray:
    """The hash constant before each of `calls` hash steps and after the
    last, as a column: step j xors with walk[j] and multiplies by walk[j+1]."""
    walk = [init]
    for _ in range(calls):
        walk.append(walk[-1] * mult & _MASK32)
    return np.array(walk, dtype=np.uint32)[:, None]


_WALK_B = _hash_walk(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hashmix(values: np.ndarray, walk: np.ndarray, j: int, steps: int) -> np.ndarray:
    """Hash steps j .. j+steps-1, one to each row of the result; values
    holds one row per step or a single row that every step hashes."""
    v = values ^ walk[j:j + steps]
    v *= walk[j + 1:j + steps + 1]
    v ^= v >> 16
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two pool words, elementwise."""
    v = x * np.uint32(_MIX_MULT_L)
    v -= y * np.uint32(_MIX_MULT_R)
    v ^= v >> 16
    return v


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer, as SeedSequence
    splits its entropy: one word for 0."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_entropy(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy).generate_state(4, np.uint64) for each column of
    entropy, a (words, trials) uint32 array of at least 4 words (an empty
    pool slot is hashed as a zero word), as a (trials, 4) array."""
    # 4 steps to fill the pool, 3 per pool word to mix it, 4 per extra word
    walk = _hash_walk(_INIT_A, _MULT_A, _POOL_SIZE * len(entropy))
    pool = _hashmix(entropy[:_POOL_SIZE], walk, 0, _POOL_SIZE)
    j = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], walk, j, _POOL_SIZE - 1))
        j += _POOL_SIZE - 1
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, walk, j, _POOL_SIZE))
        j += _POOL_SIZE
    # eight uint32 state words cycle twice through the pool; as numpy does,
    # uint64 word k is state words 2k (low) and 2k + 1
    state = np.empty((entropy.shape[1], 2 * _POOL_SIZE), dtype="<u4")
    for j in (0, _POOL_SIZE):
        state[:, j:j + _POOL_SIZE] = _hashmix(pool, _WALK_B, j, _POOL_SIZE).T
    return state.view("<u8").astype(np.uint64, copy=False)


def _trial_words(seed: int, start: int, stop: int) -> np.ndarray:
    """(stop - start, 4) uint64 array whose row t - start equals
    SeedSequence((seed, t)).generate_state(4, np.uint64), the words PCG64
    seeds trial_rng(seed, t) from.  The entropy is the seed's 32-bit words
    then t's: one word below 2**32, two from there up."""
    seed = operator.index(seed)
    if seed < 0:
        raise RangeError(f"seed must be non-negative, got {seed}")
    seed_entropy = _uint32_words(seed)
    k = len(seed_entropy)
    runs = []
    for a, b, t_words in ((start, min(stop, 2 ** 32), 1), (max(start, 2 ** 32), stop, 2)):
        if a < b:
            entropy = np.zeros((max(_POOL_SIZE, k + t_words), b - a), dtype=np.uint32)
            entropy[:k] = np.array(seed_entropy, dtype=np.uint32)[:, None]
            t = np.arange(a, b, dtype=np.uint64)
            entropy[k] = t & np.uint64(_MASK32)
            if t_words == 2:
                entropy[k + 1] = t >> np.uint64(32)
            runs.append(_hash_entropy(entropy))
    return runs[0] if len(runs) == 1 else np.concatenate(runs)


@functools.cache
def _seed_words_type() -> type:
    """Seed material that hands PCG64 one trial's precomputed state words.
    Defined on first use: numpy imports numpy.random only when asked, and
    only the sweeps need it."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def _trial_draws(words: np.ndarray, cells: int) -> np.ndarray:
    """(len(words), cells) exponential draws; row i is the one flat draw of
    the PCG64 stream seeded from words[i], so rows of _trial_words(seed, ...)
    give the draws of trial_rng(seed, t)."""
    SeedWords = _seed_words_type()
    draws = np.empty((len(words), cells))
    for row, w in enumerate(words):
        draws[row] = np.random.Generator(np.random.PCG64(SeedWords(w))).exponential(size=cells)
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
        e /= _sum_last(e)[..., None]
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


def _draw_blocks(seed: int, start: int, stop: int, cells: int):
    """(first_trial, draws) for consecutive blocks of trials start..stop-1,
    each holding at most MC_BLOCK_CELLS drawn cells (one trial at the
    least); row i of draws is trial first_trial + i's flat draw.  The seed
    words are derived a run of whole blocks at a time: hashing holds about
    100 bytes per trial, so a run of at most MC_BLOCK_CELLS // 16 trials (or
    one block) stays within a block's budget."""
    step = max(1, MC_BLOCK_CELLS // cells)
    run = max(1, MC_BLOCK_CELLS // 16 // step) * step
    for r in range(start, stop, run):
        words = _trial_words(seed, r, min(r + run, stop))
        for a in range(0, len(words), step):
            yield r + a, _trial_draws(words[a:a + step], cells)


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
    for a, draws in _draw_blocks(seed, start, stop, cells):
        arrays = _simplex_split(draws, shapes)
        for i, arr in enumerate(arrays):
            _check_rows(arr, f"source {i}" if i < n else f"response {i - n}")
        yield a, arrays[:n], arrays[n:]


def random_mixture_blocks(size: int, seed: int, start: int, stop: int):
    """Uniform random weights over `size` strategy tuples for trials
    start..stop-1, a block at a time: yields (first_trial, q) with one row
    of q per trial, from one flat draw of trial_rng(seed, t) each."""
    for a, draws in _draw_blocks(seed, start, stop, size):
        (q,) = _simplex_split(draws, [(size,)])
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
