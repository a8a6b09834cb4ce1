"""Behavior tables for chain scenarios, correlators, and the two bound values.

A behavior stores P(outcomes | inputs) as a dense (num_inputs, num_outcomes)
float array.  Row and column indices are mixed-radix packed, party 1 most
significant: p22 inputs and outcomes pack as bit strings, p14 intermediate
outcomes pack base 4 (outcome integer 2*b0 + b1), and p14 intermediate inputs
contribute radix-1 digits so the input index is just 2*x1 + x_last.

The two quantities of interest are built from (n+1)-partite correlators.  With
outcome bit b meaning eigenvalue (-1)**b,

    I = (1/4) sum_{x1, xlast} <corr at all-zero intermediate settings/bits>
    J = (1/4) sum_{x1, xlast} (-1)**(x1 + xlast) <corr at all-one ...>

and the two bound values are sqrt|I| + sqrt|J| (chain with independent
sources) and |I| + |J| (fully local models).
"""

from __future__ import annotations

import concurrent.futures
import csv
import json
import math
import os
from dataclasses import dataclass
from itertools import product
from operator import mul

import numpy as np

from .errors import (CHAIN_CELL_GUARD, OUTPUT_CELL_GUARD, DimensionError, KindError, RangeError,
                     check_size)
from .network import KIND_P22, alphabets, check_kind

BEHAVIOR_SCHEMA_VERSION = 1
ENTRY_ATOL = 1e-12
NORM_ATOL = 1e-10
VIOLATION_ATOL = 1e-9
# cells that chain_table sweeps, and Behavior validates, at a time: a block
# and its temporaries stay in cache instead of streaming through DRAM
TABLE_BLOCK_CELLS = 2 ** 16


def _cores() -> int:
    """The cores this process may run on, the most threads of chain_table and
    Behavior validation and processes of a Monte Carlo pool; tests patch it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask outside Linux
        return os.cpu_count() or 1


def _in_runs(work, items, threads: int) -> None:
    """work(run) for each of `threads` contiguous runs of items: the first
    in the calling thread, each other one in a thread started here.  Every
    thread is joined before this returns, so none outlives the call (a fork
    while one runs is unsafe), and an error raised in any run reaches the
    caller.  One thread is one plain call, work(items)."""
    if threads < 2:
        work(items)
        return
    cuts = [len(items) * t // threads for t in range(threads + 1)]
    runs = [items[a:b] for a, b in zip(cuts, cuts[1:])]
    with concurrent.futures.ThreadPoolExecutor(threads - 1) as pool:
        futures = [pool.submit(work, run) for run in runs[1:]]
        work(runs[0])
    for f in futures:
        f.result()


def table_cells(n: int) -> int:
    """Cells of a behavior table with n sources, 4**(n+1) for both kinds.
    Past n = 64 it stays 4**65, over every budget, so that pricing an absurd
    n does not form 4**(n+1) (a quarter of a gigabyte at n = 10**9)."""
    return 4 ** (min(n, 64) + 1)


def check_table_size(n: int) -> None:
    """Refuse, with chain_table's message, a table of n sources beyond
    CHAIN_CELL_GUARD cells, before anything that chain_table would refuse is built."""
    check_size(table_cells(n), CHAIN_CELL_GUARD, f"table cells of a {n + 1}-party chain")


def _check_rows(rows: np.ndarray) -> None:
    """Raise RangeError unless every entry lies in [0, 1] and every row sums
    to 1, within ENTRY_ATOL and NORM_ATOL."""
    lo = float(rows.min())
    hi = float(rows.max())
    # written so that NaN fails: every comparison with NaN is False
    if not (lo >= -ENTRY_ATOL and hi <= 1.0 + ENTRY_ATOL):
        raise RangeError(f"table entries outside [0, 1]: min={lo}, max={hi}")
    worst = float(np.abs(rows.sum(axis=1) - 1.0).max())
    if not worst <= NORM_ATOL:
        raise RangeError(f"rows must sum to 1, worst deviation {worst}")


@dataclass(eq=False)
class Behavior:
    """Dense conditional probability table for one chain scenario.

    The table is validated in blocks of rows of at most TABLE_BLOCK_CELLS
    cells.  A table of several blocks is checked on every available core,
    at most one thread per block, each thread taking one contiguous run of
    blocks.  A block is a view and its temporaries are a few numbers per
    row, so the blocks keep their size; smaller ones would make the threads
    take turns at the interpreter more often than they save.  When any
    block fails, the whole table is checked again in the calling thread and
    that check's RangeError is raised, so the verdict and the message are
    the same whatever the thread count.
    """

    kind: str
    n: int
    table: np.ndarray

    def __post_init__(self):
        check_kind(self.kind)
        ins, outs = alphabets(self.kind, self.n)
        shape = (int(np.prod(ins)), int(np.prod(outs)))
        self.table = np.asarray(self.table, dtype=float)
        if self.table.shape != shape:
            raise DimensionError(
                f"table shape {self.table.shape} does not match {shape} for "
                f"kind={self.kind}, n={self.n}"
            )
        # one block of rows at a time, so the table is read once; a block
        # that fails is reported over the whole table, as one read would be
        step = max(1, TABLE_BLOCK_CELLS // shape[1])
        threads = max(1, min(_cores(), -(-shape[0] // step)))

        def check(starts):
            for r in starts:
                _check_rows(self.table[r:r + step])

        try:
            _in_runs(check, range(0, shape[0], step), threads)
        except RangeError:
            _check_rows(self.table)
            raise

    @property
    def input_sizes(self) -> tuple[int, ...]:
        return alphabets(self.kind, self.n)[0]

    @property
    def output_sizes(self) -> tuple[int, ...]:
        return alphabets(self.kind, self.n)[1]

    def input_index(self, xs) -> int:
        return int(np.ravel_multi_index(tuple(int(x) for x in xs), self.input_sizes))

    def outcome_index(self, outs) -> int:
        return int(np.ravel_multi_index(tuple(int(a) for a in outs), self.output_sizes))

    def prob(self, xs, outs) -> float:
        return float(self.table[self.input_index(xs), self.outcome_index(outs)])


def uniform_behavior(kind: str, n: int) -> Behavior:
    ins, outs = alphabets(kind, n)
    num_in, num_out = int(np.prod(ins)), int(np.prod(outs))
    return Behavior(kind, n, np.full((num_in, num_out), 1.0 / num_out))


def mix_behaviors(weights, behaviors) -> Behavior:
    """Convex mixture of behaviors on the same scenario."""
    weights = np.asarray(list(weights), dtype=float)
    behaviors = list(behaviors)
    if len(weights) != len(behaviors) or not behaviors:
        raise DimensionError("need one weight per behavior")
    if not (weights.min() >= -ENTRY_ATOL and abs(weights.sum() - 1.0) <= 1e-10):
        raise RangeError("mixture weights must be nonnegative and sum to 1")
    first = behaviors[0]
    for b in behaviors[1:]:
        if b.kind != first.kind or b.n != first.n:
            raise KindError("cannot mix behaviors from different scenarios")
    table = sum(w * b.table for w, b in zip(weights, behaviors))
    return Behavior(first.kind, first.n, table)


def _outcome_digits(kind: str, n: int) -> tuple[np.ndarray, ...]:
    """Each party's outcome digit as an open grid over the outcome axes,
    party 1 first: an expression in them broadcasts to the outcome shape,
    whose row-major flattening is the packed outcome index."""
    _, outs = alphabets(kind, n)
    return np.indices(outs, sparse=True)


# sign of an outcome bit, and of bit 0 (high) or bit 1 (low) of a p14
# intermediate outcome string 2*b0 + b1
_BIT_SIGNS = np.array([1.0, -1.0])
_STRING_BIT_SIGNS = (np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0]))
# input weights of an end party for I and J, of a p22 intermediate reading
# input 0 or 1, and of a p14 intermediate's single input
_END_WEIGHTS = (np.array([0.5, 0.5]), np.array([0.5, -0.5]))
_INPUT_WEIGHTS = np.eye(2)
_SINGLE_INPUT = np.ones(1)


def ij_factors(kind: str, n: int):
    """Per-party factors of the I and J functionals.

    Returns ((weights_I, signs_I), (weights_J, signs_J)).  weights[p] weighs
    party p's inputs and signs[p] signs its outcomes, so that

        I = sum_x prod_p weights_I[p][x_p] * sum_a prod_p signs_I[p][a_p] * P(a|x)

    and likewise for J.  The end parties average their two inputs for I and
    alternate them for J; an intermediate party reads input 0 for I and
    input 1 for J (p22), or bit 0 for I and bit 1 for J of its string (p14).
    A party's factors depend on its role alone (left end, intermediate,
    right end), so ij_factors(kind, 2) lists one party of each role, in that
    order.  This is the one statement of that rule: compute_IJ reads table rows
    with these factors, chain_IJ_of contracts them along a chain of party
    tensors for hvmodels.model_IJ, evaluator.chain_IJ and werner_IJ stack
    each party's with the norm functional's, and
    hvmodels.strategy_IJ takes the outer product of their party_factors.
    The returned arrays are shared; do not modify them.
    """
    ins, _ = alphabets(kind, n)
    factors = []
    for which in (0, 1):
        if kind == KIND_P22:
            mid_weights, mid_signs = _INPUT_WEIGHTS[which], _BIT_SIGNS
        else:
            mid_weights, mid_signs = _SINGLE_INPUT, _STRING_BIT_SIGNS[which]
        end_weights = _END_WEIGHTS[which]
        weights = [end_weights] + [mid_weights] * (len(ins) - 2) + [end_weights]
        signs = [_BIT_SIGNS] + [mid_signs] * (len(ins) - 2) + [_BIT_SIGNS]
        factors.append((weights, signs))
    return tuple(factors)


# ---------------------------------------------------------------------------
# the chain kernel: a chain is a list of party tensors T[x, bonds..., a], input
# axis first and outcome axis last, with one bond axis at an end and (left,
# right) in between; each source is folded into the party on its left.  The
# functional kernel also takes a block of chains at once: tensors
# T[x, trials..., bonds..., a] with the same trial axes right after the input
# axis give factors, and values, with those trial axes leading.

def _fold(arr: np.ndarray, mids) -> np.ndarray:
    """A running array (packed inputs, packed outcomes, bond) contracted with
    each intermediate party tensor of mids in turn, party order kept."""
    for t in mids:
        arr = np.tensordot(arr, t, axes=([2], [1])).transpose(0, 2, 1, 4, 3)  # (X, x, A, a, r)
        arr = arr.reshape(arr.shape[0] * arr.shape[1], arr.shape[2] * arr.shape[3], -1)
    return arr


def chain_table(parties) -> np.ndarray:
    """P(a|x) of a chain in table order, refused beyond CHAIN_CELL_GUARD cells.

    The chain is contracted left to right.  The running array holds
    (packed inputs, packed outcomes, bond) so far; the last intermediate is
    folded into the closing party, and the final products are written
    straight into the table, one matmul per input pair of those two
    parties, so no second full-size array is made.

    The sweep works in blocks of at most TABLE_BLOCK_CELLS cells, so that a
    block and its temporaries stay in cache.  The head (the first parties,
    as many as keep the running array within the budget) is folded once.
    A head prefix row is one (input, outcome) prefix of those parties.  A
    block of prefix rows is then swept through the remaining parties and
    closed straight into its part of the table; it holds as many rows as
    stay within the budget at the end of the sweep, but never fewer than
    two.  With one row BLAS takes its matrix-vector path, which rounds
    differently; with two or more every cell is the same dot product, taken
    in the same order, as in one unblocked sweep, so the table is the same
    bit for bit.  A chain whose whole running array fits the budget is one
    block and makes exactly the calls of an unblocked sweep.

    A chain of several such blocks is swept on every available core, at
    most one thread per block.  Each thread takes one contiguous run of
    blocks, so the threads share table pages at most where two runs meet
    (interleaved blocks made them fault the same huge pages).  A thread's
    blocks hold at most TABLE_BLOCK_CELLS // threads cells, and no fewer
    than two prefix rows: the live temporaries stay within one thread's
    budget, and every cell is the same dot product as in a serial sweep, so
    the table is the same bit for bit whatever the thread count.  A chain of
    one block, or of blocks of fewer than four prefix rows, is swept in the
    calling thread alone.
    """
    cells = math.prod(t.shape[0] * t.shape[-1] for t in parties)
    check_size(cells, CHAIN_CELL_GUARD, f"table cells of a {len(parties)}-party chain")
    first, *mids, last, closing = parties
    closing = np.tensordot(last, closing, axes=([2], [1]))  # (xi, l, ai, xe, ae)
    xi, bond, ai, xe, ae = closing.shape
    # prefix rows and bond of the running array after each number of mids
    rows, bonds = [first.shape[0] * first.shape[2]], [first.shape[1]]
    for t in mids:
        rows.append(rows[-1] * t.shape[0] * t.shape[3])
        bonds.append(t.shape[2])
    depth = max([0] + [k for k in range(len(rows)) if rows[k] * bonds[k] <= TABLE_BLOCK_CELLS])
    head, rest = _fold(first.transpose(0, 2, 1), mids[:depth]), mids[depth:]
    # prefix rows that fit the budget at the end of the sweep; a thread per
    # core and per serial block, while each thread's share holds two rows
    fit = TABLE_BLOCK_CELLS * rows[depth] // (rows[-1] * bond)
    threads = max(1, min(_cores(), rows[depth] // max(2, fit), fit // 2))
    # prefix rows per block, rounded down to a power of two: both kinds'
    # input and outcome prefix counts are powers of two, so blocks tile them
    step = max(2, fit // threads)
    step = 1 << (step.bit_length() - 1)
    X, A = head.shape[:2]
    Xs, As = math.prod(t.shape[0] for t in rest), math.prod(t.shape[3] for t in rest)
    table = np.empty((X, Xs, xi, xe, A, As, ai * ae), np.result_type(head, *rest, closing))
    kx, ka = max(1, step // A), min(A, step)  # a block: kx input prefixes by ka outcome prefixes

    def sweep(blocks):
        for x0, a0 in blocks:
            arr = _fold(head[x0:x0 + kx, a0:a0 + ka], rest)  # (kx * Xs, ka * As, bond)
            # a view: each sliced axis merges with the whole axis after it
            out = table[x0:x0 + kx, :, :, :, a0:a0 + ka].reshape(
                arr.shape[0], xi, xe, arr.shape[1], ai * ae)
            for i, e in product(range(xi), range(xe)):
                np.matmul(arr, closing[i, :, :, e].reshape(bond, -1), out=out[:, i, e])

    _in_runs(sweep, list(product(range(0, X, kx), range(0, A, ka))), threads)
    return table.reshape(X * Xs * xi * xe, -1)


def party_factors(parties, weights, signs) -> list[np.ndarray]:
    """Each party tensor contracted with its input weights and outcome signs:
    a vector over the bond at the ends, a (left, right) matrix in between,
    behind any trial axes the tensors carry."""
    return [np.einsum("x...a,x,a->...", t, w, s) for t, w, s in zip(parties, weights, signs)]


def chain_contract(factors):
    """The value of a chain functional from its per-party factors, in O(n):
    sum_x prod_p weights[p][x_p] sum_a prod_p signs[p][a_p] P(a|x).
    Factors with leading trial axes give one value per trial."""
    first, *mids, last = factors
    v = first[..., None, :]
    for m in mids:
        v = v @ m
    return (v @ last[..., None])[..., 0, 0]


def chain_IJ_of(kind: str, n: int, parties) -> tuple:
    """I and J of a chain of party tensors, without its table."""
    return tuple(chain_contract(party_factors(parties, w, s)) for w, s in ij_factors(kind, n))


def _signed_sums(v: np.ndarray, signs) -> np.ndarray:
    """Sign the flat outcome axis of v, one matmul per party from the last,
    down to v's leading shape.  Past TABLE_BLOCK_CELLS cells the trailing
    parties d.. are signed first, over chunks of the leading outcomes that
    fit one block, then parties ..d-1 over all of them.  A chunk holds a
    power of two, at least two, of the leading outcomes, so that no step
    stacks a single dot product (numpy sums that one in another order) and
    every row keeps the dot products of the unblocked steps."""
    lead = v.shape[:-1]
    if v.size > TABLE_BLOCK_CELLS:
        rows, d, trailing = v.size // v.shape[-1], 1, v.shape[-1] // signs[0].size
        while 2 * rows * trailing > TABLE_BLOCK_CELLS and d < len(signs) - 1:
            trailing //= signs[d].size
            d += 1
        heads = v.shape[-1] // trailing
        step = min(heads, TABLE_BLOCK_CELLS // (rows * trailing))
        step = 1 << (step.bit_length() - 1)
        v, out = v.reshape(lead + (heads, trailing)), np.empty(lead + (heads,))
        for i in range(0, heads, step):
            w = v[..., i:i + step, :]
            for s in reversed(signs[d:]):
                w = w.reshape(lead + (-1, s.size)) @ s
            out[..., i:i + step] = w
        v, signs = out, signs[:d]
    for s in reversed(signs):
        v = v.reshape(lead + (-1, s.size)) @ s
    return v


def compute_IJ(b: Behavior) -> tuple[float, float]:
    """Signed values of the two correlator averages for a behavior.

    Reads only the four table rows each functional weighs, as one view
    (each party's nonzero weights are one run of its inputs), and signs
    their outcomes one matmul per party from the last, over the stacked
    rows, in blocks of at most TABLE_BLOCK_CELLS cells (_signed_sums);
    each row keeps the dot products a row-by-row loop takes.
    """
    values = []
    for weights, signs in ij_factors(b.kind, b.n):
        picks = [np.flatnonzero(w) for w in weights]
        v = b.table.reshape(b.input_sizes + (-1,))[tuple(slice(p[0], p[-1] + 1) for p in picks)]
        total = 0.0
        for xs, corr in zip(product(*picks), _signed_sums(v, signs).reshape(-1).tolist()):
            total += math.prod(float(w[x]) for w, x in zip(weights, xs)) * corr
        values.append(total)
    return values[0], values[1]


@dataclass
class CorrelatorReport:
    """Signed I and J plus the two derived bound values and violation flags."""

    I: float
    J: float
    nlocal_value: float
    local_value: float
    violates_nlocal: bool
    violates_local: bool

    def to_json(self) -> dict:
        return {
            "I": self.I,
            "J": self.J,
            "abs_I": abs(self.I),
            "abs_J": abs(self.J),
            "nlocal_value": self.nlocal_value,
            "local_value": self.local_value,
            "violates_nlocal": self.violates_nlocal,
            "violates_local": self.violates_local,
        }


def bound_values(I: float, J: float) -> CorrelatorReport:
    """Evaluate sqrt|I|+sqrt|J| and |I|+|J| and flag strict violations of 1.

    Raises RangeError when |I| or |J| exceeds 1 beyond tolerance; correlator
    averages of a normalized behavior cannot.
    """
    if not (abs(I) <= 1.0 + VIOLATION_ATOL and abs(J) <= 1.0 + VIOLATION_ATOL):
        raise RangeError(f"|I| and |J| must not exceed 1, got I={I}, J={J}")
    nlocal = math.sqrt(abs(I)) + math.sqrt(abs(J))
    local = abs(I) + abs(J)
    return CorrelatorReport(
        I=float(I),
        J=float(J),
        nlocal_value=float(nlocal),
        local_value=float(local),
        violates_nlocal=bool(nlocal > 1.0 + VIOLATION_ATOL),
        violates_local=bool(local > 1.0 + VIOLATION_ATOL),
    )


def correlator_report(b: Behavior) -> CorrelatorReport:
    I, J = compute_IJ(b)
    return bound_values(I, J)


def behavior_header(b: Behavior) -> dict:
    """Every key of the behavior document but the table, which comes last."""
    return {
        "schema_version": BEHAVIOR_SCHEMA_VERSION,
        "kind": b.kind,
        "n": b.n,
        "input_sizes": list(b.input_sizes),
        "output_sizes": list(b.output_sizes),
        "row_order": "inputs-major, outcomes-minor, party 1 most significant",
    }


def behavior_to_json(b: Behavior) -> dict:
    return {**behavior_header(b), "table": b.table.reshape(-1).tolist()}


def behavior_from_json(doc: dict) -> Behavior:
    """Inverse of behavior_to_json; a document that is not an object, lacks
    a key, or has a non-integer n, a non-numeric table or a table of the
    wrong length raises DimensionError."""
    if not isinstance(doc, dict):
        raise DimensionError(f"a behavior document is a JSON object, got {type(doc).__name__}")
    version = doc.get("schema_version")
    if version != BEHAVIOR_SCHEMA_VERSION:
        raise KindError(f"unsupported behavior schema version {version!r}")
    try:
        kind, n = check_kind(doc["kind"]), int(doc["n"])
        table = np.asarray(doc["table"], dtype=float)
    except KeyError as exc:
        raise DimensionError(f"behavior document has no {exc} key") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionError(f"malformed behavior document: {exc}") from None
    # both kinds have 4**(n+1) cells; since 4**(n+1) > n, checking n against
    # the table first keeps an absurd n from building its alphabets
    if n >= table.size or table.size != table_cells(n):
        raise DimensionError(f"table has {table.size} entries, not the 4**(n+1) of n={n}")
    ins, outs = alphabets(kind, n)
    return Behavior(kind, n, table.reshape(math.prod(ins), math.prod(outs)))


# cells the file writers format at a time, so no temporary grows with a row
_RUN_CELLS = 4096


def _runs(b: Behavior):
    """(lead, tail, rows): the table as rows over the last outcome parties that
    fit in _RUN_CELLS, and the alphabets of the digits fixed and varying along a row."""
    ins, outs = alphabets(b.kind, b.n)
    k = next(k for k in range(len(outs) + 1) if math.prod(outs[k:]) <= _RUN_CELLS)
    return ins + outs[:k], outs[k:], b.table.reshape(-1, math.prod(outs[k:]))


def _row_texts(rows: np.ndarray):
    """The repr of each cell of a float table, one row at a time.  Each distinct
    value is formatted once, keyed by its bits so that -0.0 and 0.0 stay apart,
    unless their texts would outweigh the table: then each cell is formatted."""
    table = np.ascontiguousarray(rows)
    bits = table.view(np.int64)
    # sorted, not np.unique: its hash table (numpy >= 2.3) is 10-50x slower here
    keys = np.sort(bits, axis=None)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    if 8 * keys.size > bits.size:
        yield from (map(repr, row.tolist()) for row in table)
        return
    texts = [repr(v) for v in keys.view(np.float64).tolist()]
    for row in bits:
        yield map(texts.__getitem__, np.searchsorted(keys, row).tolist())


def write_json_cells(b: Behavior, fh, sep: str) -> None:
    """The cells of b's table in row order as json writes the items of a list
    of floats, joined by sep, one write per run of up to _RUN_CELLS cells of
    the flat table (JSON items, unlike CSV lines, carry no row digits)."""
    cells = b.table.reshape(-1)
    for i, texts in enumerate(_row_texts(cells.reshape(-1, min(cells.size, _RUN_CELLS)))):
        fh.write((sep if i else "") + sep.join(texts))


def save_behavior_json(b: Behavior, path) -> None:
    """behavior_to_json(b) as json.dump writes it, streamed run by run."""
    with open(path, "w") as fh:
        fh.write(json.dumps(behavior_header(b))[:-1] + ', "table": [')
        write_json_cells(b, fh, ", ")
        fh.write("]}")


def load_behavior_json(path) -> Behavior:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # invalid JSON, or undecodable bytes
            raise DimensionError(f"{path}: not a JSON document: {exc}") from None
    try:
        return behavior_from_json(doc)
    except DimensionError as exc:
        raise DimensionError(f"{path}: {exc}") from None


def save_behavior_csv(b: Behavior, path) -> None:
    """One row per (input tuple, outcome tuple): x1..xN, a1..aN, p."""
    parties = range(1, b.n + 2)
    header = [*(f"x{i}" for i in parties), *(f"a{i}" for i in parties), "p"]
    lead, tail, rows = _runs(b)
    tails = ["".join(f"{d}," for d in digits) for digits in product(*map(range, tail))]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for digits, texts in zip(product(*map(range, lead)), _row_texts(rows)):
            head = "".join(f"{d}," for d in digits)
            fh.write("".join([head + t + text + "\r\n" for t, text in zip(tails, texts)]))


def _csv_digits(path, line: int, row, radices) -> list[int]:
    """A CSV row's input and outcome digits, each parsed by int() and
    checked against its range; DimensionError names the line."""
    try:
        digits = [int(v) for v in row[:len(radices)]]
    except ValueError as exc:
        raise DimensionError(f"{path}, line {line}: {exc}") from None
    for d, r in zip(digits, radices):
        if not 0 <= d < r:
            raise DimensionError(f"{path}, line {line}: digit {d} out of range 0..{r - 1}")
    return digits


def load_behavior_csv(path, kind: str, n: int) -> Behavior:
    """Read the save_behavior_csv format; every (inputs, outcomes) row at
    most once, with exactly 2*(n+1) + 1 columns.  Tables larger than any
    simulate writes are refused before anything is allocated or read."""
    ins, outs = alphabets(kind, n)
    check_size(table_cells(n), OUTPUT_CELL_GUARD, f"{path}: behavior table cells at n = {n}")
    # a row's digits x1..xN, a1..aN index the flat table row-major
    radices = ins + outs
    strides = [math.prod(radices[i + 1:]) for i in range(len(radices))]
    table = np.zeros(math.prod(radices))
    seen = bytearray(table.size)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise DimensionError(f"{path}: empty file, expected a header row")
        for row in reader:
            line = reader.line_num
            if len(row) != len(radices) + 1:
                raise DimensionError(
                    f"{path}, line {line}: expected {len(radices) + 1} columns, got {len(row)}")
            digits = _csv_digits(path, line, row, radices)
            cell = sum(map(mul, digits, strides))
            try:
                value = float(row[-1])
            except ValueError as exc:
                raise DimensionError(f"{path}, line {line}: {exc}") from None
            if seen[cell]:
                raise DimensionError(
                    f"{path}, line {line}: duplicate row for inputs {tuple(digits[:n + 1])}, "
                    f"outcomes {tuple(digits[n + 1:])}")
            seen[cell] = 1
            table[cell] = value
    return Behavior(kind, n, table.reshape(math.prod(ins), -1))
