"""Born-rule evaluation of chain scenarios and analytic reference tables.

Two independent evaluation routes are provided.  evaluate_naive builds the
global 2^(2n)-dimensional state and is kept as a small-n oracle.  The
production route writes the scenario as one transfer tensor per party and
hands it to the chain kernel in behavior: evaluate_chain builds the table,
linear in n, and chain_IJ contracts I and J alone in O(n), with no table.
werner_IJ serves searches over Werner visibilities: each distinct party
builds its factors on the singlet and on white noise once and keeps them,
so a standard chain's are built once per process, and each profile then
costs n axpys and one contraction.  Its line form, IJ.line(base, step),
walks one line of visibilities at a cost that does not grow with the
parties that stay fixed, and gives the values at an array of points from
one contraction (see _affine_IJ).

The closed_form_* functions return the analytic singlet-chain tables in a
fixed reference convention that differs from the simulator's eigenvalue
convention by a deterministic end-party relabeling depending on the parity
of n (see reference_relabeling).  The p22 reference transcription carries no
end-party outcome dependence at all; closed_form_p22_end_parity restores it
and is the variant that the Born rule actually reproduces.  Both are kept so
the discrepancy stays visible.  See the README section on conventions.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .behavior import (NORM_ATOL, Behavior, _outcome_digits, alphabets, chain_contract,
                       chain_table, check_table_size, ij_factors)
from .errors import NAIVE_DIM_GUARD, KindError, RangeError, ScenarioError, check_size
from .network import KIND_P14, KIND_P22, NetworkScenario, _werner_states, check_visibilities

_REAL_EPS = 1e-14


def evaluate_naive(scenario: NetworkScenario) -> Behavior:
    """Full-tensor Born rule: kron the sources, then trace out one party at
    a time against its POVM elements.

    Exponential in n; guarded at global dimension 2^(2n) <= 4096 (n <= 6).
    Party-major tensor order coincides with source-major qubit order on a
    chain, so no qubit permutation is needed.  The global state is split as
    rho[(i, R), (j, S)] with (i, j) the next party's qubits, and that party's
    elements E[x, a] leave sum_ij E[x, a][j, i] rho[(i, R), (j, S)], an
    operator on the remaining qubits.  No transfer tensor or chain kernel is
    used, so this stays an independent oracle for evaluate_chain.
    """
    n = scenario.n
    check_size(4 ** n, NAIVE_DIM_GUARD,
               f"global dimension of a naive evaluation of {n} sources (use evaluate_chain)")
    rest = reduce(np.kron, scenario.rhos())
    for elems in scenario.elements:
        d = elems.shape[-1]
        rest = rest.reshape(rest.shape[:-2] + (d, rest.shape[-1] // d, d, -1))
        rest = np.einsum("...iRjS,xaji->...xaRS", rest, elems)
    # axes (x1, a1, x2, a2, ..., 1, 1): inputs first, then outcomes
    probs = rest[..., 0, 0].real.transpose(*range(0, 2 * n + 2, 2), *range(1, 2 * n + 2, 2))
    ins, outs = alphabets(scenario.kind, n)
    return Behavior(scenario.kind, n, probs.reshape(math.prod(ins), math.prod(outs)))


def _roles(n: int) -> list[int]:
    """Each party's role in a chain of n sources: 0 left end, 1 intermediate,
    2 right end."""
    return [0] + [1] * (n - 1) + [2]


def _party_tensor(elems, rho, role: int) -> np.ndarray:
    """A party tensor T[x, bonds..., a] from the party's POVM element array
    E[x, a] and the 4x4 density operator of the source on its right (none
    for the right end).  A bond is the 2x2 operator left on the right qubit
    of the latest source, flattened row-major."""
    nx, na = elems.shape[:2]
    if role == 2:
        return np.einsum("xaij->xjia", elems).reshape(nx, 4, na)
    rho4 = rho.reshape(2, 2, 2, 2)
    if role == 0:
        return np.einsum("xaqc,ctqs->xtsa", elems, rho4).reshape(nx, 4, na)
    e = elems.reshape(nx, na, 2, 2, 2, 2)
    return np.einsum("xawrcb,btrs->xcwtsa", e, rho4).reshape(nx, 4, 4, na)


def _party_tensors(elems, rhos) -> list[np.ndarray]:
    """_party_tensor of each party of a chain, in party order."""
    return [_party_tensor(e, rho, role)
            for e, rho, role in zip(elems, [*rhos, None], _roles(len(rhos)))]


def _real_if_real(parties) -> list[np.ndarray]:
    """The party tensors in real arithmetic when their imaginary parts are
    below _REAL_EPS, else as they are."""
    if all(np.abs(t.imag).max() < _REAL_EPS for t in parties):
        return [t.real for t in parties]
    return parties


def evaluate_chain(scenario: NetworkScenario) -> Behavior:
    """Transfer-operator Born rule, linear in n: behavior.chain_table over
    the scenario's party tensors, with the table priced before any is built."""
    check_table_size(scenario.n)
    table = chain_table(_real_if_real(_party_tensors(scenario.elements, scenario.rhos())))
    if np.iscomplexobj(table):
        table = np.ascontiguousarray(table.real)
    return Behavior(scenario.kind, scenario.n, table)


def _functional_factor(kind: str, t, role: int) -> np.ndarray:
    """One party tensor's norm, I and J factors in its role, stacked for
    chain_contract.  The norm reads input 0 and sums the outcomes (the
    product of the source traces); I and J weigh as ij_factors(kind, 2)'s
    party of that role."""
    return np.stack([t[0].sum(axis=-1)] + [np.einsum("x...a,x,a->...", t, w[role], s[role])
                                           for w, s in ij_factors(kind, 2)])


def _unit_norm_IJ(factors) -> tuple:
    """I and J from stacked functional factors, or a list of each when the
    factors carry a leading axis of points; every norm must be 1 within
    NORM_ATOL, as a Behavior's row sums."""
    norm, I, J = chain_contract(factors).real.T.tolist()
    if not all(abs(v - 1.0) <= NORM_ATOL for v in (norm if isinstance(norm, list) else [norm])):
        raise RangeError(f"sources must have unit trace, product of traces {norm}")
    return I, J


def chain_IJ(scenario: NetworkScenario) -> tuple[float, float]:
    """I and J of a scenario by the functional chain kernel, without the
    table, with _unit_norm_IJ's check of the product of the source traces."""
    parties = _real_if_real(_party_tensors(scenario.elements, scenario.rhos()))
    return _unit_norm_IJ([_functional_factor(scenario.kind, t, role)
                          for t, role in zip(parties, _roles(scenario.n))])


def _werner_party(party, kind: str, role: int):
    """werner_IJ's factors for one party in its role: its norm, I and J
    factor on white noise, and its slope towards the singlet, each in real
    arithmetic when the party's tensor is real within _REAL_EPS.  Built
    once per kind and role, and kept read-only on the party."""
    key = ("werner", kind, role)
    if key not in party.cache:
        noise, pure = (_functional_factor(kind, *_real_if_real(
            [_party_tensor(party.elements, rho, role)]), role) for rho in _werner_states())
        party.cache[key] = noise, pure - noise
        for f in party.cache[key]:
            f.setflags(write=False)
    return party.cache[key]


def _werner_factor(noise, slope, alpha):
    """A party's factor on a Werner source of visibility alpha, or one per
    entry of an array of visibilities, on a leading axis."""
    return noise + (np.multiply.outer(alpha, slope) if isinstance(alpha, np.ndarray) else alpha * slope)


def _fold_right(factors) -> np.ndarray:
    """factors, (left, right) matrices and then a vector, contracted from the
    right into a vector over the first one's left bond: the right
    environment that a prefix of the chain is swept into."""
    env = factors[-1][..., None]
    for m in reversed(factors[:-1]):
        env = m @ env
    return env[..., 0]


def _affine_IJ(noise, slopes):
    """alphas -> (I, J) of the chain whose party p has factor
    noise[p] + alphas[p]*slopes[p] (the last party has no source).

    IJ.line(base, step) is the same function along one line of visibility
    space, s -> IJ(base + s*step) for s in [0, 1], as a search walks it.
    At a 1-D array of s it gives a list of I and one of J, one value per
    point, from one contraction over a leading axis of points.
    The line's two ends are checked once: any s in [0, 1] gives a convex
    combination of them.  The parties past the last one that moves
    (step != 0) are contracted once into a right environment.  A call
    builds each distinct factor of the prefix up to the last moving party
    once (parties with the same factors on the same line share one) and
    sweeps only that prefix into the environment.  When every source moves,
    the environment is the last party's factor and a value equals IJ's bit
    for bit; otherwise the product is associated differently and may differ
    in the last bits.
    """
    n = len(slopes)

    def IJ(alphas) -> tuple[float, float]:
        alphas = check_visibilities(n, alphas)
        factors = [_werner_factor(f, d, a) for f, d, a in zip(noise, slopes, alphas)]
        return _unit_norm_IJ(factors + noise[n:])

    def line(base, step):
        base, step = check_visibilities(n, base), [float(d) for d in step]
        if len(step) != n:
            raise ScenarioError(f"expected {n} steps, got {len(step)}")
        check_visibilities(n, [b + d for b, d in zip(base, step)])
        # the prefix keeps party 0, so the environment is never the whole chain
        k = max((p + 1 for p in range(n) if step[p]), default=1)
        env = _fold_right([_werner_factor(noise[p], slopes[p], base[p]) for p in range(k, n)]
                          + noise[n:])
        # prefix party p reads the factor of party slot[p], the first with its factors and line
        first = {}
        slot = [first.setdefault((id(noise[p]), id(slopes[p]), base[p], step[p]), p)
                for p in range(k)]

        def IJ_at(s) -> tuple:
            many = isinstance(s, np.ndarray)
            s = s.astype(float) if many else float(s)
            if not (0.0 <= s.min() and s.max() <= 1.0 if many else 0.0 <= s <= 1.0):
                raise RangeError(f"line parameter must lie in [0, 1], got {s}")
            built = {p: _werner_factor(noise[p], slopes[p], base[p] + s * step[p])
                     for p in first.values()}
            return _unit_norm_IJ([built[p] for p in slot] + [env])

        return IJ_at

    IJ.line = line
    return IJ


def werner_IJ(scenario: NetworkScenario):
    """I and J of the scenario's settings on Werner sources, as a function
    of the n visibilities; scenario.sources are not used.

    Each party factor is linear in the source folded into it, so on
    werner(a) it is F(noise) + a*(F(singlet) - F(noise)), from two factors
    kept on the party (_werner_party).  A call is n axpys and one
    chain_contract, with chain_IJ's unit-norm check.  A visibility outside
    [0, 1], or NaN, raises RangeError; one inside gives a convex combination
    of network._werner_states(), so no call validates a source.
    """
    n = scenario.n
    noise, slopes = zip(*(_werner_party(party, scenario.kind, role)
                          for party, role in zip(scenario.parties, _roles(n))))
    return _affine_IJ(list(noise), list(slopes[:n]))


def closed_form_p14(n: int) -> Behavior:
    """Analytic p14 singlet-chain table in the reference convention.

    Entry at outcomes (a1, m_2..m_n, alast), inputs (x1, xlast), with
    intermediate strings m = 2*b0 + b1:

        (1 + (-1)**(a1+alast+1) * ((-1)**sum(b0) + (-1)**(sum(b1)+x1+xlast))/2) / 4**n

    Each input row is written in place into one preallocated table, with the
    same operations in the same order as the formula, so only the
    intermediates' sums (a sixteenth of the table each) are temporaries.
    """
    check_table_size(n)
    _, outs = alphabets(KIND_P14, n)
    digits = _outcome_digits(KIND_P14, n)
    s0_signs = (-1.0) ** sum(d >> 1 for d in digits[1:-1])
    s1 = sum(d & 1 for d in digits[1:-1])
    end_signs = (-1.0) ** (digits[0] + digits[-1] + 1)
    table = np.empty((4, math.prod(outs)))
    for row, (x1, xlast) in zip(table, [(0, 0), (0, 1), (1, 0), (1, 1)]):
        row = row.reshape(outs)
        np.multiply(end_signs, s0_signs + (-1.0) ** (s1 + x1 + xlast), out=row)
        row /= 2.0
        row += 1.0
        row /= 4.0 ** n
    return Behavior(KIND_P14, n, table)


def _p22_delta_rows(n: int, include_ends: bool) -> np.ndarray:
    ins, outs = alphabets(KIND_P22, n)
    digits = _outcome_digits(KIND_P22, n)
    parity = reduce(np.bitwise_xor, digits[1:-1])
    if include_ends:
        parity = parity ^ digits[0] ^ digits[-1]
    sign = np.broadcast_to((-1.0) ** (parity + 1), outs).reshape(-1)
    num_in = int(np.prod(ins))
    rows = np.zeros((num_in, sign.size))
    for xi in range(num_in):
        xs = np.unravel_index(xi, ins)
        d0 = all(x == 0 for x in xs[1:-1])
        d1 = all(x == 1 for x in xs[1:-1])
        signed = sign * (float(d0) + (-1.0) ** (xs[0] + xs[-1]) * float(d1)) / 2.0
        rows[xi] = (1.0 + signed) / 2.0 ** (n + 1)
    return rows


def closed_form_p22(n: int) -> Behavior:
    """Analytic p22 singlet-chain table, reference transcription.

    The signed term depends only on the intermediate outcome parity; end
    outcomes do not appear, so all end-to-end correlators of this table
    vanish.  Kept as-is for comparison; closed_form_p22_end_parity is the
    variant the Born rule reproduces (up to reference_relabeling).
    """
    check_table_size(n)
    return Behavior(KIND_P22, n, _p22_delta_rows(n, include_ends=False))


def closed_form_p22_end_parity(n: int) -> Behavior:
    """closed_form_p22 with the end-party outcome bits restored to the parity.

    Equals reduce_p14_to_p22(closed_form_p14(n)) exactly.
    """
    check_table_size(n)
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
