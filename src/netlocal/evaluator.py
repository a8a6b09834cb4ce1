"""Born-rule evaluation of chain scenarios and analytic reference tables.

Two independent evaluation routes are provided.  evaluate_naive builds the
global 2^(2n)-dimensional state and is kept as a small-n oracle.  The
production route writes the scenario as one transfer tensor per party and
hands it to the chain kernel in behavior: evaluate_chain builds the table,
linear in n, and chain_IJ contracts I and J alone in O(n), with no table.
werner_IJ serves searches over Werner visibilities: it builds the factors
of the singlet and white-noise chains once, and each profile then costs n
axpys and one contraction.  A standard chain has only three distinct
parties (left end, intermediate, right end), whose element arrays, with the
singlet and white-noise states, are validated once per kind and process
(_standard_settings) and widened to any n, so two functions build no
scenario: standard_behavior gives evaluate_chain's table bit for bit, and
standard_werner_IJ gives werner_IJ's function from factors cached per kind.
Both IJ functions have a line form, IJ.line(base, step), for a search along
alphas(s) = base + s*step: the line's ends are validated once, the parties
past the last moving source are contracted once into a right environment,
and a point then builds each distinct moving factor once and sweeps only
the moving prefix, so a point on a line that moves source 1 alone costs
one factor and one small contraction at any n.

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
from functools import cache, reduce

import numpy as np

from .behavior import (NORM_ATOL, Behavior, _outcome_digits, alphabets, chain_contract,
                       chain_table, check_table_size, ij_factors, party_factors)
from .errors import (CHAIN_LENGTH_GUARD, NAIVE_DIM_GUARD, KindError, RangeError, ScenarioError,
                     check_size)
from .network import (ID4, KIND_P14, KIND_P22, NetworkScenario, SourceState, check_chain,
                      check_visibilities, singlet, standard_scenario, werner)

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
    rest = reduce(np.kron, [s.rho for s in scenario.sources])
    for elems in scenario.elements:
        d = elems.shape[-1]
        rest = rest.reshape(rest.shape[:-2] + (d, rest.shape[-1] // d, d, -1))
        rest = np.einsum("...iRjS,xaji->...xaRS", rest, elems)
    # axes (x1, a1, x2, a2, ..., 1, 1): inputs first, then outcomes
    probs = rest[..., 0, 0].real.transpose(*range(0, 2 * n + 2, 2), *range(1, 2 * n + 2, 2))
    ins, outs = alphabets(scenario.kind, n)
    return Behavior(scenario.kind, n, probs.reshape(math.prod(ins), math.prod(outs)))


def _party_tensors(elems, rhos) -> list[np.ndarray]:
    """A chain of party tensors T[x, bonds..., a] from the n + 1 parties'
    POVM element arrays E[x, a] and the n sources' 4x4 density operators.
    A bond is the 2x2 operator left on the right qubit of the latest
    source, flattened row-major."""
    n = len(rhos)
    rho4 = [r.reshape(2, 2, 2, 2) for r in rhos]
    nx, na = elems[0].shape[:2]
    parties = [np.einsum("xaqc,ctqs->xtsa", elems[0], rho4[0]).reshape(nx, 4, na)]
    for p in range(1, n):
        nx, na = elems[p].shape[:2]
        e = elems[p].reshape(nx, na, 2, 2, 2, 2)
        parties.append(np.einsum("xawrcb,btrs->xcwtsa", e, rho4[p]).reshape(nx, 4, 4, na))
    nx, na = elems[n].shape[:2]
    parties.append(np.einsum("xaij->xjia", elems[n]).reshape(nx, 4, na))
    return parties


def _real_if_real(parties) -> list[np.ndarray]:
    """The party tensors in real arithmetic when their imaginary parts are
    below _REAL_EPS, else as they are."""
    if all(np.abs(t.imag).max() < _REAL_EPS for t in parties):
        return [t.real for t in parties]
    return parties


def _chain_behavior(kind: str, parties) -> Behavior:
    """chain_table's Behavior, in real arithmetic when the tensors are real."""
    table = chain_table(_real_if_real(parties))
    if np.iscomplexobj(table):
        table = np.ascontiguousarray(table.real)
    return Behavior(kind, len(parties) - 1, table)


def evaluate_chain(scenario: NetworkScenario) -> Behavior:
    """Transfer-operator Born rule, linear in n: behavior.chain_table over
    the scenario's party tensors."""
    return _chain_behavior(scenario.kind, _party_tensors(
        scenario.elements, [s.rho for s in scenario.sources]))


def _functional_factors(kind: str, parties) -> list[np.ndarray]:
    """Per-party factors of the norm, I and J functionals of a chain, each
    party's three stacked on a leading axis for chain_contract.  The norm
    functional reads input 0 and sums the outcomes: the product of the
    source traces."""
    (wI, sI), (wJ, sJ) = ij_factors(kind, len(parties) - 1)
    norm = [t[0].sum(axis=-1) for t in parties]
    return [np.stack(fs) for fs in zip(norm, party_factors(parties, wI, sI),
                                       party_factors(parties, wJ, sJ))]


def _unit_norm_IJ(factors) -> tuple[float, float]:
    """I and J from stacked functional factors; the norm must be 1 within
    NORM_ATOL, as a Behavior's row sums."""
    norm, I, J = chain_contract(factors).real.tolist()
    if not abs(norm - 1.0) <= NORM_ATOL:
        raise RangeError(f"sources must have unit trace, product of traces {norm}")
    return I, J


def chain_IJ(scenario: NetworkScenario) -> tuple[float, float]:
    """I and J of a scenario by the functional chain kernel, without the table.

    The norm functional (input 0, outcomes summed) is the product of the
    source traces; it must be 1 within NORM_ATOL, as a Behavior's row sums.
    """
    parties = _real_if_real(_party_tensors(scenario.elements,
                                           [s.rho for s in scenario.sources]))
    return _unit_norm_IJ(_functional_factors(scenario.kind, parties))


def _werner_factors(kind: str, elems):
    """The factors werner_IJ interpolates for parties with POVM element
    arrays elems: the norm, I and J factors on white noise (n + 1 parties),
    and each sourced party's slope towards the singlet (n parties)."""
    n = len(elems) - 1
    noise, pure = (_functional_factors(kind, _real_if_real(_party_tensors(elems, [rho] * n)))
                   for rho in _standard_settings(kind)[1])
    return noise, [p - q for p, q in zip(pure[:n], noise[:n])]


def _werner_factor(noise, slope, alpha):
    """A party's factor on a Werner source of visibility alpha."""
    return noise + alpha * slope


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

        def IJ_at(s) -> tuple[float, float]:
            s = float(s)
            if not 0.0 <= s <= 1.0:
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

    werner(a) = a*singlet + (1 - a)*I/4, and each party factor is linear in
    the source folded into that party, so every factor of the norm, I and J
    functionals is affine in its party's visibility:
    F(a) = F(noise) + a*(F(singlet) - F(noise)).  The two end states are
    validated and both chains' factors built here, once; a call is n axpys
    and one chain_contract, with chain_IJ's unit-norm check.  A visibility
    outside [0, 1], or NaN, raises RangeError; one inside gives a convex
    combination of the two validated states, so no call validates a source.
    """
    return _affine_IJ(*_werner_factors(scenario.kind, scenario.elements))


@cache
def _standard_settings(kind: str):
    """The one place where a kind's standard settings are validated, once
    per kind and process: the POVM element arrays of the left end,
    intermediate and right end parties, from the n = 2 standard scenario,
    and the (white noise, singlet) states whose convex combinations are the
    Werner sources, each checked as a SourceState.  Read-only arrays."""
    states = [SourceState(rho).rho for rho in (ID4 / 4.0, singlet())]
    for a in states:
        a.setflags(write=False)
    return standard_scenario(2, kind).elements, tuple(states)


@cache
def _standard_parties(kind: str):
    """werner_IJ's factors for the three distinct parties of a standard
    chain, ((left, middle, right) noise factors, (left, middle) slopes),
    from _standard_settings(kind); the n = 2 chain's unit norms on white
    noise and on the singlet are checked once.  The arrays are read-only."""
    noise, slopes = _werner_factors(kind, _standard_settings(kind)[0])
    IJ = _affine_IJ(noise, slopes)
    for alphas in ([0.0, 0.0], [1.0, 1.0]):  # unit norm on white noise and on the singlet
        IJ(alphas)
    for f in noise + slopes:
        f.setflags(write=False)
    return tuple(noise), tuple(slopes)


def standard_werner_IJ(kind: str, n: int):
    """werner_IJ(standard_scenario(n, kind)) with no scenario built: every
    intermediate party of a standard chain has the same settings, so its
    factors are the cached middle party's, and the set-up does not grow
    with n.  The factors, and so every value, are the same bit for bit.
    Chains longer than CHAIN_LENGTH_GUARD are refused before the widened
    lists, which grow with n, are built."""
    check_chain(n, kind)
    check_size(n, CHAIN_LENGTH_GUARD, f"chain of {n} sources")
    (left, mid, right), (s_left, s_mid) = _standard_parties(kind)
    return _affine_IJ([left] + [mid] * (n - 1) + [right], [s_left] + [s_mid] * (n - 1))


def standard_behavior(kind: str, n: int, alphas=None) -> Behavior:
    """evaluate_chain(standard_scenario(n, kind, alphas)) bit for bit, with
    no scenario built: the three element arrays of _standard_settings(kind)
    widened to n, and werner(a) per source, which checks only its
    visibility (one in [0, 1] gives a convex combination of the two
    validated states).  Bad arguments raise standard_scenario's errors, and
    too large a table chain_table's, before any tensor, or the default
    profile (a list of n ones), is built."""
    check_chain(n, kind)
    profile = None if alphas is None else check_visibilities(n, alphas)
    check_table_size(n)
    rhos = [werner(a) for a in ([1.0] * n if profile is None else profile)]
    left, mid, right = _standard_settings(kind)[0]
    return _chain_behavior(kind, _party_tensors([left] + [mid] * (n - 1) + [right], rhos))


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
