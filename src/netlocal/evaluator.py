"""Born-rule evaluation of chain scenarios and analytic reference tables.

Two independent evaluation routes are provided.  evaluate_naive builds the
global 2^(2n)-dimensional state and measurement operators and is kept as a
small-n oracle.  evaluate_chain contracts the chain source by source with a
transfer-operator sweep, is linear in n, and is the production path.
chain_IJ contracts I and J alone along the same chain, in O(n) time and
constant memory, without building the 4^n-cell table.

The closed_form_* functions return the analytic singlet-chain tables in a
fixed reference convention that differs from the simulator's eigenvalue
convention by a deterministic end-party relabeling depending on the parity
of n (see reference_relabeling).  The p22 reference transcription carries no
end-party outcome dependence at all; closed_form_p22_end_parity restores it
and is the variant that the Born rule actually reproduces.  Both are kept so
the discrepancy stays visible.  See the README section on conventions.
"""

from __future__ import annotations

import numpy as np

from .behavior import NORM_ATOL, Behavior, _outcome_digits, alphabets, ij_factors
from .errors import KindError, RangeError, ScenarioError, SizeGuardError
from .network import (ID2, ID4, KIND_P14, KIND_P22, NetworkScenario,
                      measurement_elements)

NAIVE_DIM_GUARD = 4096
_REAL_EPS = 1e-14


def evaluate_naive(scenario: NetworkScenario) -> Behavior:
    """Full-tensor Born rule: kron everything, trace per table entry.

    Exponential in n; guarded at global dimension 2^(2n) <= 4096 (n <= 6).
    Party-major tensor order coincides with source-major qubit order on a
    chain, so no qubit permutation is needed.
    """
    n = scenario.n
    dim = 4 ** n
    if dim > NAIVE_DIM_GUARD:
        raise SizeGuardError(
            f"naive evaluation needs dimension {dim} > {NAIVE_DIM_GUARD}; use evaluate_chain"
        )
    rho = scenario.sources[0].rho
    for s in scenario.sources[1:]:
        rho = np.kron(rho, s.rho)
    elems = [measurement_elements(scenario, p) for p in range(n + 1)]
    ins, outs = alphabets(scenario.kind, n)
    num_in, num_out = int(np.prod(ins)), int(np.prod(outs))
    table = np.zeros((num_in, num_out))
    for xi in range(num_in):
        xs = np.unravel_index(xi, ins)
        for oi in range(num_out):
            av = np.unravel_index(oi, outs)
            op = elems[0][xs[0]][av[0]]
            for p in range(1, n + 1):
                op = np.kron(op, elems[p][xs[p]][av[p]])
            table[xi, oi] = np.einsum("ij,ji->", rho, op).real
    return Behavior(scenario.kind, n, table)


def _transfer_tensors(scenario: NetworkScenario):
    """Per-party transfer blocks for the chain sweep.

    Bond state is the 2x2 operator on the previous source's right qubit,
    flattened row-major to a 4-vector.  Returns (left, mids, right) where
    left[x][a] is the initial bond vector, mids[p][x][a] the 4x4 bond update
    of intermediate party p, and right[x][a] the closing vector.
    """
    n = scenario.n
    elems = [measurement_elements(scenario, p) for p in range(n + 1)]
    rho4 = [s.rho.reshape(2, 2, 2, 2) for s in scenario.sources]

    left = np.stack([
        np.stack([
            np.einsum("qa,atqs->ts", elems[0][x][a], rho4[0]).reshape(4)
            for a in range(len(elems[0][x]))
        ]) for x in range(len(elems[0]))
    ])
    mids = []
    for p in range(1, n):
        blocks = np.stack([
            np.stack([
                np.einsum("wrab,btrs->awts",
                          elems[p][x][a].reshape(2, 2, 2, 2), rho4[p]).reshape(4, 4)
                for a in range(len(elems[p][x]))
            ]) for x in range(len(elems[p]))
        ])
        mids.append(blocks)
    right = np.stack([
        np.stack([elems[n][x][a].T.reshape(4) for a in range(len(elems[n][x]))])
        for x in range(len(elems[n]))
    ])
    return left, mids, right


def evaluate_chain(scenario: NetworkScenario) -> Behavior:
    """Transfer-operator Born rule, linear in chain length.

    The running array holds bond vectors indexed by (packed inputs so far,
    packed outcomes so far); each intermediate party multiplies in its bond
    update, and the last intermediate is folded together with the closing
    party so the final array is written directly in table order.
    """
    n = scenario.n
    left, mids, right = _transfer_tensors(scenario)
    all_real = (
        np.abs(left.imag).max() < _REAL_EPS
        and np.abs(right.imag).max() < _REAL_EPS
        and all(np.abs(m.imag).max() < _REAL_EPS for m in mids)
    )
    if all_real:
        left, right = left.real, right.real
        mids = [m.real for m in mids]

    arr = left  # (in1, out1, bond)
    for blocks in mids[:-1]:
        ni, no = blocks.shape[0], blocks.shape[1]
        nx, na = arr.shape[0], arr.shape[1]
        # (X, A, b) x (xi, ai, b, t) -> (X, A, xi, ai, t)
        arr = np.tensordot(arr, blocks, axes=([2], [2]))
        arr = arr.transpose(0, 2, 1, 3, 4).reshape(nx * ni, na * no, 4)

    # fold the last intermediate with the closing end party
    last = mids[-1]
    ni, no = last.shape[0], last.shape[1]
    ne, ae = right.shape[0], right.shape[1]
    closing = np.tensordot(last, right, axes=([3], [2]))  # (xi, ai, b, xe, ae)
    nx, na = arr.shape[0], arr.shape[1]
    table = np.tensordot(arr, closing, axes=([2], [2]))  # (X, A, xi, ai, xe, ae)
    table = table.transpose(0, 2, 4, 1, 3, 5).reshape(nx * ni * ne, na * no * ae)
    if not all_real:
        table = table.real
    return Behavior(scenario.kind, n, np.ascontiguousarray(table))


def chain_IJ(scenario: NetworkScenario, sources=None) -> tuple[float, float]:
    """I and J of a scenario by one bond sweep, without the table.

    I and J factorise over the parties (behavior.ij_factors), so each party
    contributes one operator, sum_x weights[x] sum_a signs[a] E[x][a], and
    the sweep carries a single 2x2 bond operator per functional from left to
    right.  The all-identity functional rides along; its value, the product
    of the source traces, must be 1 within NORM_ATOL, the check a Behavior
    makes on its row sums.

    Args:
        scenario: supplies the settings, and the sources unless overridden.
        sources: n SourceState objects to use in place of scenario.sources.
    """
    n = scenario.n
    sources = scenario.sources if sources is None else list(sources)
    if len(sources) != n:
        raise ScenarioError(f"expected {n} sources, got {len(sources)}")
    factors = ij_factors(scenario.kind, n)
    ops = []  # ops[p]: (3, d, d) operators of party p for I, J and the norm
    for p in range(n + 1):
        elems = np.asarray(measurement_elements(scenario, p))
        ident = ID2 if p in (0, n) else ID4
        ops.append(np.stack(
            [np.einsum("x,a,xaij->ij", w[p], s[p], elems) for w, s in factors] + [ident]))

    # bond[k] is the operator left on the right qubit of the latest source
    bond = np.einsum("kqa,atqs->kts", ops[0], sources[0].rho.reshape(2, 2, 2, 2))
    for p in range(1, n):
        bond = np.einsum("kwrab,kaw,btrs->kts", ops[p].reshape(3, 2, 2, 2, 2), bond,
                         sources[p].rho.reshape(2, 2, 2, 2))
    I, J, norm = np.einsum("kst,kts->k", ops[n], bond).real
    if abs(norm - 1.0) > NORM_ATOL:
        raise RangeError(f"sources must have unit trace, product of traces {norm}")
    return float(I), float(J)


def closed_form_p14(n: int) -> Behavior:
    """Analytic p14 singlet-chain table in the reference convention.

    Entry at outcomes (a1, m_2..m_n, alast), inputs (x1, xlast), with
    intermediate strings m = 2*b0 + b1:

        (1 + (-1)**(a1+alast+1) * ((-1)**sum(b0) + (-1)**(sum(b1)+x1+xlast))/2) / 4**n
    """
    if n < 2:
        raise RangeError(f"chain needs n >= 2, got {n}")
    digits = _outcome_digits(KIND_P14, n)
    s0 = sum(d >> 1 for d in digits[1:-1])
    s1 = sum(d & 1 for d in digits[1:-1])
    ends = digits[0] + digits[-1]
    rows = []
    for x1 in (0, 1):
        for xlast in (0, 1):
            signed = ((-1.0) ** (ends + 1)) * (
                (-1.0) ** s0 + (-1.0) ** (s1 + x1 + xlast)
            ) / 2.0
            rows.append((1.0 + signed) / 4.0 ** n)
    return Behavior(KIND_P14, n, np.stack(rows))


def _p22_delta_rows(n: int, include_ends: bool) -> np.ndarray:
    ins, _ = alphabets(KIND_P22, n)
    digits = _outcome_digits(KIND_P22, n)
    mid_parity = np.zeros(digits[0].shape, dtype=np.int64)
    for d in digits[1:-1]:
        mid_parity ^= d
    parity = mid_parity ^ digits[0] ^ digits[-1] if include_ends else mid_parity
    num_in = int(np.prod(ins))
    rows = np.zeros((num_in, digits[0].size))
    for xi in range(num_in):
        xs = np.unravel_index(xi, ins)
        d0 = all(x == 0 for x in xs[1:-1])
        d1 = all(x == 1 for x in xs[1:-1])
        signed = ((-1.0) ** (parity + 1)) * (
            float(d0) + (-1.0) ** (xs[0] + xs[-1]) * float(d1)
        ) / 2.0
        rows[xi] = (1.0 + signed) / 2.0 ** (n + 1)
    return rows


def closed_form_p22(n: int) -> Behavior:
    """Analytic p22 singlet-chain table, reference transcription.

    The signed term depends only on the intermediate outcome parity; end
    outcomes do not appear, so all end-to-end correlators of this table
    vanish.  Kept as-is for comparison; closed_form_p22_end_parity is the
    variant the Born rule reproduces (up to reference_relabeling).
    """
    if n < 2:
        raise RangeError(f"chain needs n >= 2, got {n}")
    return Behavior(KIND_P22, n, _p22_delta_rows(n, include_ends=False))


def closed_form_p22_end_parity(n: int) -> Behavior:
    """closed_form_p22 with the end-party outcome bits restored to the parity.

    Equals reduce_p14_to_p22(closed_form_p14(n)) exactly.
    """
    if n < 2:
        raise RangeError(f"chain needs n >= 2, got {n}")
    return Behavior(KIND_P22, n, _p22_delta_rows(n, include_ends=True))


def relabel_outputs(b: Behavior, party: int, perm) -> Behavior:
    """Permute one party's outcome labels: new label perm[a] replaces a."""
    ins, outs = alphabets(b.kind, b.n)
    if not 0 <= party <= b.n:
        raise RangeError(f"party index {party} out of range")
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(outs[party])):
        raise RangeError(f"not a permutation of 0..{outs[party] - 1}: {perm}")
    inverse = np.argsort(np.asarray(perm))
    t = b.table.reshape((b.table.shape[0],) + outs)
    t = np.take(t, inverse, axis=1 + party)
    return Behavior(b.kind, b.n, t.reshape(b.table.shape))


def reference_relabeling(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """Output relabeling mapping simulated tables onto the reference convention.

    The eigenvalue-convention Born tables for singlet chains match the
    closed forms up to a global outcome-parity factor (-1)**n versus the
    reference's fixed (-1); for even n flipping party 1's output bit
    reconciles the two, for odd n they already agree.  Returned as a list of
    (party, permutation) pairs, empty when no relabeling is needed.
    """
    if n % 2 == 0:
        return [(0, (1, 0))]
    return []


def to_reference_convention(b: Behavior) -> Behavior:
    for party, perm in reference_relabeling(b.n):
        b = relabel_outputs(b, party, perm)
    return b


def reduce_p14_to_p22(b: Behavior) -> Behavior:
    """Coarse-grain a p14 behavior to p22 shape by bit selection.

    Under p22 input x, an intermediate party announces bit x of its two-bit
    string, so P22(a|x) sums the p14 table over strings whose selected bit
    matches.  This classical post-processing commutes with the correlators:
    I and J are preserved.
    """
    if b.kind != KIND_P14:
        raise KindError(f"reduction needs a p14 behavior, got {b.kind}")
    n = b.n
    ins22, outs22 = alphabets(KIND_P22, n)
    _, outs14 = alphabets(KIND_P14, n)
    # select[s] maps a string digit to its bit s: shape (4 strings, 2 bits)
    select = [np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]),
              np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])]
    num_in = int(np.prod(ins22))
    table = np.zeros((num_in, int(np.prod(outs22))))
    for xi in range(num_in):
        xs = np.unravel_index(xi, ins22)
        row = b.table[b.input_index((xs[0],) + (0,) * (n - 1) + (xs[-1],))]
        t = row.reshape(outs14)
        for p in range(1, n):
            t = np.tensordot(t, select[xs[p]], axes=([p], [0]))
            # contracted axis lands at the back; rotate it home
            t = np.moveaxis(t, -1, p)
        table[xi] = t.reshape(-1)
    return Behavior(KIND_P22, n, table)
