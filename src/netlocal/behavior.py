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

import csv
import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DimensionError, KindError, RangeError, SizeGuardError
from .network import KIND_P22, check_kind

BEHAVIOR_SCHEMA_VERSION = 1
ENTRY_ATOL = 1e-12
NORM_ATOL = 1e-10
VIOLATION_ATOL = 1e-9
# both kinds have 4**(n+1) cells; n = 13 is a 2 GiB table
CHAIN_CELL_GUARD = 4 ** 14
# decomposition holds three tables and simulate prints one as text: n <= 11
OUTPUT_CELL_GUARD = 4 ** 12


def alphabets(kind: str, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-party (input_sizes, output_sizes) for a chain with n sources."""
    check_kind(kind)
    if n < 2:
        raise RangeError(f"chain needs at least two sources, got n={n}")
    if kind == KIND_P22:
        return (2,) * (n + 1), (2,) * (n + 1)
    return (2,) + (1,) * (n - 1) + (2,), (2,) + (4,) * (n - 1) + (2,)


@dataclass(eq=False)
class Behavior:
    """Dense conditional probability table for one chain scenario."""

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
        lo = float(self.table.min())
        hi = float(self.table.max())
        # written so that NaN fails: every comparison with NaN is False
        if not (lo >= -ENTRY_ATOL and hi <= 1.0 + ENTRY_ATOL):
            raise RangeError(f"table entries outside [0, 1]: min={lo}, max={hi}")
        sums = self.table.sum(axis=1)
        worst = float(np.abs(sums - 1.0).max())
        if not worst <= NORM_ATOL:
            raise RangeError(f"rows must sum to 1, worst deviation {worst}")

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
    This is the one statement of that rule: compute_IJ reads table rows
    with these factors, chain_IJ_of contracts them along a chain of party
    tensors for evaluator.chain_IJ and hvmodels.model_IJ, and
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

def chain_table(parties) -> np.ndarray:
    """P(a|x) of a chain in table order, refused beyond CHAIN_CELL_GUARD cells.

    The running array holds (packed inputs, packed outcomes, bond) so far;
    the last intermediate is folded into the closing party, and the final
    products are written straight into the table, one block per input pair
    of those two parties, so no second full-size array is made.
    """
    cells = math.prod(t.shape[0] * t.shape[-1] for t in parties)
    if cells > CHAIN_CELL_GUARD:
        raise SizeGuardError(f"chain table needs {cells} cells, over {CHAIN_CELL_GUARD} (n <= 13)")
    first, *mids, last, closing = parties
    arr = first.transpose(0, 2, 1)  # (X, A, bond)
    for t in mids:
        arr = np.tensordot(arr, t, axes=([2], [1])).transpose(0, 2, 1, 4, 3)  # (X, x, A, a, r)
        arr = arr.reshape(arr.shape[0] * arr.shape[1], arr.shape[2] * arr.shape[3], -1)
    closing = np.tensordot(last, closing, axes=([2], [1]))  # (xi, l, ai, xe, ae)
    xi, bond, ai, xe, ae = closing.shape
    table = np.empty((arr.shape[0], xi, xe, arr.shape[1], ai * ae), np.result_type(arr, closing))
    for i, e in product(range(xi), range(xe)):
        np.matmul(arr, closing[i, :, :, e].reshape(bond, -1), out=table[:, i, e])
    return table.reshape(arr.shape[0] * xi * xe, -1)


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


def _row_correlator(row: np.ndarray, signs) -> float:
    """sum_a prod_p signs[p][a_p] * row[a], contracted one party at a time
    from the last, so no temporary is larger than the row."""
    v = row
    for s in reversed(signs):
        v = v.reshape(-1, s.size) @ s
    return float(v[0])


def compute_IJ(b: Behavior) -> tuple[float, float]:
    """Signed values of the two correlator averages for a behavior.

    Reads only the four table rows each functional weighs.
    """
    values = []
    for weights, signs in ij_factors(b.kind, b.n):
        total = 0.0
        for xs in product(*(np.flatnonzero(w) for w in weights)):
            coeff = math.prod(float(w[x]) for w, x in zip(weights, xs))
            total += coeff * _row_correlator(b.table[b.input_index(xs)], signs)
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
    nlocal = np.sqrt(abs(I)) + np.sqrt(abs(J))
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


def behavior_to_json(b: Behavior) -> dict:
    return {
        "schema_version": BEHAVIOR_SCHEMA_VERSION,
        "kind": b.kind,
        "n": b.n,
        "input_sizes": list(b.input_sizes),
        "output_sizes": list(b.output_sizes),
        "row_order": "inputs-major, outcomes-minor, party 1 most significant",
        "table": b.table.reshape(-1).tolist(),
    }


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
    if n >= table.size or table.size != 4 ** (n + 1):
        raise DimensionError(f"table has {table.size} entries, not the 4**(n+1) of n={n}")
    ins, outs = alphabets(kind, n)
    return Behavior(kind, n, table.reshape(math.prod(ins), math.prod(outs)))


def save_behavior_json(b: Behavior, path) -> None:
    with open(path, "w") as fh:
        json.dump(behavior_to_json(b), fh)


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
    ins, outs = alphabets(b.kind, b.n)
    num_parties = b.n + 1
    header = [f"x{i + 1}" for i in range(num_parties)] + \
             [f"a{i + 1}" for i in range(num_parties)] + ["p"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for xi in range(b.table.shape[0]):
            xs = np.unravel_index(xi, ins)
            for oi in range(b.table.shape[1]):
                outs_t = np.unravel_index(oi, outs)
                writer.writerow([*map(int, xs), *map(int, outs_t),
                                 repr(float(b.table[xi, oi]))])


def load_behavior_csv(path, kind: str, n: int) -> Behavior:
    """Read the save_behavior_csv format; every (inputs, outcomes) row at
    most once, with exactly 2*(n+1) + 1 columns."""
    ins, outs = alphabets(kind, n)
    shape = (int(np.prod(ins)), int(np.prod(outs)))
    table = np.zeros(shape)
    seen = np.zeros(shape, dtype=bool)
    num_parties = n + 1
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise DimensionError(f"{path}: empty file, expected a header row")
        for row in reader:
            line = reader.line_num
            if len(row) != 2 * num_parties + 1:
                raise DimensionError(
                    f"{path}, line {line}: expected {2 * num_parties + 1} columns, "
                    f"got {len(row)}")
            try:
                xs = tuple(int(v) for v in row[:num_parties])
                outs_t = tuple(int(v) for v in row[num_parties:2 * num_parties])
                xi = int(np.ravel_multi_index(xs, ins))
                oi = int(np.ravel_multi_index(outs_t, outs))
                value = float(row[-1])
            except ValueError as exc:
                raise DimensionError(f"{path}, line {line}: {exc}") from None
            if seen[xi, oi]:
                raise DimensionError(
                    f"{path}, line {line}: duplicate row for inputs {xs}, outcomes {outs_t}")
            seen[xi, oi] = True
            table[xi, oi] = value
    return Behavior(kind, n, table)
