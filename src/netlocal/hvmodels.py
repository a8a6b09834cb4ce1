"""Hidden-variable models on the chain: evaluation, constructions, weights.

An n-local model assigns each source an independent hidden variable with a
finite distribution; party 1 responds to (x1, lambda_1), intermediate party i
to (x_i, lambda_{i-1}, lambda_i) and party n+1 to (x_last, lambda_n).
Responses may be stochastic; local randomness is part of the response table.
With each source distribution folded into the response of the party on its
left, a model is a chain for the kernel in behavior: behavior_of_model takes
its table from chain_table.  model_IJ needs only the parties' factors: it
reduces each response table with party_factors first and multiplies each
source distribution into the much smaller factor of its party.

Random models for Monte-Carlo sweeps are drawn a block of trials at a time:
random_model_blocks gives each trial t one flat standard exponential draw,
made in place in its row of the block from the stream of trial_rng(seed, t),
splits and normalises the block's draws by runs of arrays of equal shape
(the n sources are one view, the n - 1 intermediates' responses another),
each with a leading trial axis, validates them as NLocalModel does, and
models_IJ reduces and contracts the whole block at once.  A block holds at
most MC_BLOCK_CELLS drawn cells.  Row t of a block holds exactly the arrays
of sample_random_model(kind, n, K, trial_rng(seed, t)); random_mixture_blocks
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
from itertools import accumulate, groupby, product

import numpy as np

from .behavior import (Behavior, alphabets, chain_contract, chain_table, check_table_size,
                       ij_factors, party_factors)
from .errors import (CHAIN_LENGTH_GUARD, HIDDEN_PRODUCT_GUARD, STRATEGY_SPACE_GUARD,
                     DimensionError, RangeError, ScenarioError, check_size)
from .network import KIND_P22, check_kind

MODEL_SCHEMA_VERSION = 1
PRNG_ALGORITHM = "numpy-pcg64"
# drawn cells per block of Monte-Carlo trials: 128 KiB of float64.  A sweep
# holds one block at a time; with its seed words and numpy's iteration
# buffers, it allocates at most about 3.5 blocks' worth.  Larger blocks are
# no faster
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


def _row_problem(a) -> str | None:
    """What keeps a from having every entry nonnegative and every slice over
    its last axis summing to 1, or None; any leading axes are checked at
    once."""
    # written so that NaN fails: every comparison with NaN is False
    if not a.min() >= -1e-12:
        return "has negative entries"
    worst = np.abs(_sum_last(a) - 1.0).max()
    if not worst <= _DIST_ATOL:
        return f"rows must sum to 1, worst deviation {worst}"
    return None


def _check_rows(a, what):
    problem = _row_problem(a)
    if problem is not None:
        raise RangeError(f"{what} {problem}")


def _check_run(run, names):
    """_check_rows of each array of a run, run[:, i] named names[i], at once.
    A run that fails is checked again array by array, so that the error
    names the first array that fails, with that array's message."""
    if _row_problem(run) is not None:
        for i, what in enumerate(names):
            _check_rows(run[:, i], what)


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
        shapes = _response_shapes(self.kind, self.n, self.cardinalities)
        self.responses = list(self.responses)  # the model's own list, not the caller's
        for p, (r, want) in enumerate(zip(self.responses, shapes)):
            r = np.asarray(r, dtype=float)
            if r.shape != want:
                raise DimensionError(f"response {p} has shape {r.shape}, expected {want}")
            _check_rows(r, f"response {p}")
            self.responses[p] = r

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self.source_dists)


def _response_shapes(kind: str, n: int, ks) -> list[tuple[int, ...]]:
    """Each party's response-table shape, (inputs, bonds..., outputs), for
    hidden cardinalities ks = (K_1, ..., K_n): an end party has the bond of
    its one source, an intermediate party p those of sources p and p + 1."""
    ins, outs = alphabets(kind, n)
    return [(ins[p], *ks[max(p - 1, 0):p + 1], outs[p]) for p in range(n + 1)]


def _model_parties(source_dists, responses) -> list[np.ndarray]:
    """A model as a chain of party tensors: each source distribution folded
    into the right bond axis of the party on its left."""
    return [r * d[:, None] for r, d in zip(responses, source_dists)] + [responses[-1]]


def behavior_of_model(model: NLocalModel) -> Behavior:
    """Exact finite sum over hidden variables, by behavior.chain_table; a
    table beyond CHAIN_CELL_GUARD cells is refused before any party tensor
    is built.  The product of the hidden cardinalities is never formed."""
    check_table_size(model.n)
    parties = _model_parties(model.source_dists, model.responses)
    return Behavior(model.kind, model.n, chain_table(parties))


def models_IJ(kind: str, n: int, sources, responses) -> tuple[np.ndarray, np.ndarray]:
    """Signed (I, J) of a block of models by the functional chain kernel;
    one I and one J per trial.

    The arrays come in runs, as random_model_blocks yields them: a run is
    an array (trials, m, *shape) of m consecutive parties' arrays of one
    shape.  responses[j] is a run of response tables and sources[j] the run
    of the sources folded into those parties; the last response run, the
    right end, has no sources.  Each response run is reduced at once by
    party_factors, for I and J together, its input axis moved beside its
    outcome axis (a view); each source distribution then multiplies the
    right bond of its party's factor, and chain_contract folds the factors
    along the chain.
    """
    firsts = list(accumulate((r.shape[1] for r in responses[:-1]), initial=0))
    functionals = [([w[p] for p in firsts], [s[p] for p in firsts]) for w, s in ij_factors(kind, n)]
    values = []
    for runs in party_factors([np.moveaxis(r, 2, -2) for r in responses], functionals):
        for f, d in zip(runs, sources):
            f *= d.reshape(d.shape[:2] + (1,) * (f.ndim - 3) + d.shape[2:])
        values.append(chain_contract([f for run in runs for f in run.swapaxes(0, 1)]))
    return values[0], values[1]


def model_IJ(model: NLocalModel) -> tuple[float, float]:
    """Signed (I, J) of the model, models_IJ of a block of one with its
    parties cut into runs of equal response shape; equal to
    compute_IJ(behavior_of_model(model)) up to float roundoff."""
    cuts = list(accumulate((len(list(g)) for _, g in groupby(model.responses[:-1], key=np.shape)),
                           initial=0))
    sources = [np.stack(model.source_dists[a:b])[None] for a, b in zip(cuts, cuts[1:])]
    responses = [np.stack(model.responses[a:b])[None] for a, b in zip(cuts, cuts[1:])]
    I, J = models_IJ(model.kind, model.n, sources, responses + [model.responses[-1][None, None]])
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
    the choice is recorded in the p14 model note.  Chains longer than
    CHAIN_LENGTH_GUARD are refused before anything is built.
    """
    check_kind(kind)
    check_size(n, CHAIN_LENGTH_GUARD, f"chain of {n} sources")
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
    """(len(words), cells) standard exponential draws; row i is the one flat
    draw of the PCG64 stream seeded from words[i], made in place, so rows of
    _trial_words(seed, ...) give the draws of trial_rng(seed, t)."""
    SeedWords = _seed_words_type()
    draws = np.empty((len(words), cells))
    for row, w in zip(draws, words):
        np.random.Generator(np.random.PCG64(SeedWords(w))).standard_exponential(out=row)
    return draws


def _run_cells(runs) -> int:
    """Drawn cells of runs of (count, shape)."""
    return sum(m * math.prod(shape) for m, shape in runs)


def _simplex_split(draws: np.ndarray, runs) -> list[np.ndarray]:
    """Cut the last axis of draws into consecutive runs of arrays: run
    (m, shape) becomes one view of shape lead + (m,) + shape, where lead is
    draws' leading shape, normalised in place over its last axis (uniform
    points of the probability simplex).  Each slice is summed on its own,
    as when each array is cut and normalised alone, so the bits do not
    depend on the runs."""
    lead = draws.shape[:-1]
    arrays = []
    start = 0
    for m, shape in runs:
        stop = start + m * math.prod(shape)
        e = draws[..., start:stop].reshape(lead + (m,) + shape)
        e /= _sum_last(e)[..., None]
        arrays.append(e)
        start = stop
    return arrays


def _random_model_runs(kind: str, n: int, cardinality: int) -> list[tuple[int, tuple[int, ...]]]:
    """A random model's arrays in draw order, as (count, shape) runs of equal
    shapes: the n source distributions, then the n + 1 response tables (the
    left end, the n - 1 intermediates, the right end).  Chains longer than
    CHAIN_LENGTH_GUARD, and response tables of more than
    HIDDEN_PRODUCT_GUARD cells in all, are refused."""
    check_kind(kind)
    if n < 2:
        raise ScenarioError(f"chain needs n >= 2, got {n}")
    if cardinality < 1:
        raise RangeError(f"cardinality must be positive, got {cardinality}")
    check_size(n, CHAIN_LENGTH_GUARD, f"chain of {n} sources")
    k = int(cardinality)
    first, mid, last = _response_shapes(kind, 2, (k, k))  # one party of each role
    runs = [(1, first), (n - 1, mid), (1, last)]
    check_size(_run_cells(runs), HIDDEN_PRODUCT_GUARD, f"response table cells at n = {n}, K = {k}")
    return [(n, (k,))] + runs


def sample_random_model(kind: str, n: int, cardinality: int, rng) -> NLocalModel:
    """Random n-local model: simplex-uniform sources, random responses.

    rng may be an integer seed or a numpy Generator; one flat standard
    exponential draw fills every array, as one row of a block of
    random_model_blocks.  Response tables of more than HIDDEN_PRODUCT_GUARD
    cells in all are refused before any draw.
    """
    runs = _random_model_runs(kind, n, cardinality)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(int(rng))
    draws = np.empty((1, _run_cells(runs)))
    rng.standard_exponential(out=draws[0])
    arrays = [a for run in _simplex_split(draws, runs) for a in run[0]]
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

    Returns an iterator of (first_trial, sources, responses) in models_IJ's
    runs: responses holds the left end's table, the intermediates' and the
    right end's, and sources the left end's source and the intermediates',
    each run an array (trials, parties, *shape).  Row t - first_trial holds
    exactly the arrays of sample_random_model(kind, n, cardinality,
    trial_rng(seed, t)), checked as NLocalModel checks them; a failed check
    names the array, as NLocalModel does.  Oversized models are refused
    before any draw, as by sample_random_model.  The iterator keeps no
    block while it draws the next.
    """
    runs = _random_model_runs(kind, n, cardinality)
    names = [f"source {i}" for i in range(n)] + [f"response {p}" for p in range(n + 1)]
    cuts = list(accumulate((m for m, _ in runs), initial=0))
    run_names = [names[a:b] for a, b in zip(cuts, cuts[1:])]

    def split(block):
        first, draws = block
        arrays = _simplex_split(draws, runs)
        for run, what in zip(arrays, run_names):
            _check_run(run, what)
        sources, *responses = arrays
        return first, [sources[:, :1], sources[:, 1:]], responses

    return map(split, _draw_blocks(seed, start, stop, _run_cells(runs)))


def random_mixture_blocks(size: int, seed: int, start: int, stop: int):
    """Uniform random weights over `size` strategy tuples for trials
    start..stop-1, a block at a time: yields (first_trial, q) with one row
    of q per trial, from one flat draw of trial_rng(seed, t) each."""
    for a, draws in _draw_blocks(seed, start, stop, size):
        (q,) = _simplex_split(draws, [(1, (size,))])
        yield a, q[:, 0]


# ---------------------------------------------------------------------------
# deterministic strategies and weight tensors

def strategy_counts(kind: str, n: int) -> tuple[int, ...]:
    """Number of deterministic strategies per party (outputs ** inputs)."""
    ins, outs = alphabets(kind, n)
    return tuple(o ** i for i, o in zip(ins, outs))


def party_strategy_table(kind: str, n: int, party: int) -> np.ndarray:
    """Indicator tensor T[s, x, a] = 1 iff strategy s maps input x to a.

    Strategies enumerate outputs-per-input tuples in row-major order, so
    strategy s answers input x with digit x of s in base num_outputs: row
    T[s, x] is the identity's row of that digit.
    """
    ins, outs = alphabets(kind, n)
    ni, no = ins[party], outs[party]
    return np.eye(no)[list(product(range(no), repeat=ni))]


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


def q_weights(model: NLocalModel) -> StrategyWeights:
    """Deterministic-strategy weights induced by an n-local model.

    The table of the model's chain with each party's strategy weights in
    place of its response, under one input: behavior.chain_table, so the
    joint hidden law is never formed.  More than STRATEGY_SPACE_GUARD
    strategy tuples are refused before any weight is built.
    """
    counts = strategy_counts(model.kind, model.n)
    check_size(math.prod(counts), STRATEGY_SPACE_GUARD, f"strategy tuples at n = {model.n}")
    weights = [_party_strategy_weights(model, p)[None] for p in range(model.n + 1)]
    q = chain_table(_model_parties(model.source_dists, weights))
    return StrategyWeights(model.kind, model.n, q.reshape(counts))


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

    Ends announce their hidden bit, intermediates the XOR of theirs: the
    responses of the r = 1 tightness model.  The law is the even mixture of
    the two product laws whose first and last sources both take value c
    (c = 0 or 1) around a uniform middle source, so the weights are the
    mean of those two models' q_weights.  The shared bit makes q(s1, s4)
    concentrate on equal constant strategies, violating the ends_only
    identity by 1/4.
    """
    if n != 3:
        raise ScenarioError("the shipped example is for n=3")
    responses = tightness_model(KIND_P22, n, 1.0).responses
    halves = [q_weights(NLocalModel(n, KIND_P22, [e, np.full(2, 0.5), e], responses)).weights
              for e in np.eye(2)]
    return StrategyWeights(KIND_P22, n, (halves[0] + halves[1]) / 2)


# ---------------------------------------------------------------------------
# per-strategy-tuple correlator values (used by the local-mixture sweep)

def strategy_IJ(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(I, J) of every deterministic strategy tuple, flattened in tuple order.

    A tuple's correlator factorises over the parties, so each functional is
    the outer product of one factor per party: its strategy table contracted
    with the party's weights and signs from behavior.ij_factors.  More than
    STRATEGY_SPACE_GUARD tuples are refused before any table is built.
    """
    check_size(math.prod(strategy_counts(kind, n)), STRATEGY_SPACE_GUARD,
               f"strategy tuples at n = {n}")
    tables = [party_strategy_table(kind, n, p) for p in range(n + 1)]
    out = []
    for factors in party_factors(tables, ij_factors(kind, n)):
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
    """Inverse of model_to_json.  A document that is not an object, lacks a
    key or holds a value of the wrong type raises ScenarioError."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"a model document is a JSON object, got {type(doc).__name__}")
    version = doc.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ScenarioError(f"unsupported model schema version {version!r}")
    try:
        n, kind = int(doc["n"]), check_kind(doc["kind"])
        source_dists = [np.asarray(d, dtype=float) for d in doc["source_dists"]]
        responses = [np.asarray(r, dtype=float) for r in doc["responses"]]
        note = str(doc.get("note", ""))
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ScenarioError(f"malformed model document: {exc!r}") from None
    return NLocalModel(n=n, kind=kind, source_dists=source_dists, responses=responses, note=note)
