"""Certification tools: LP membership, decompositions, thresholds, sweeps.

The local-polytope membership test runs a dense two-phase feasibility
simplex written here (no external solver): phase one minimizes the L1
constraint violation with paired artificial columns, over table rows chosen
exactly, party by party, and stops once that violation is negligible; a
behavior is a member exactly when some strategy mixture reproduces its full
table within tolerance.  The LP splits into independent blocks at the
parties with one input (p14's intermediates), solved one after another.

Also here: the exact decomposition of the analytic quantum point into two
n-local models (so the n-local set is not convex), visibility-threshold
bisection on Werner-type sources, plot-ready boundary curves in the (I, J)
plane, and seeded Monte-Carlo sweeps over random models and local mixtures.
The sweeps evaluate a block of trials at once (hvmodels.random_model_blocks
and random_mixture_blocks), with no Python loop per trial beyond its PRNG
and its one draw; trial t still uses the stream (seed, t).
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import product
from typing import NamedTuple

import numpy as np

from . import behavior, hvmodels
from .behavior import Behavior, alphabets, bound_values, table_cells
from .errors import (CHAIN_LENGTH_GUARD, GRID_POINT_GUARD, LP_CELL_GUARD, OUTPUT_CELL_GUARD,
                     SWEEP_CELL_GUARD, SWEEP_PARTY_CELLS, SWEEP_TRIAL_CELLS, NoCrossingError,
                     RangeError, check_size)
from .evaluator import chain_IJ, closed_form_p14, closed_form_p22_end_parity, werner_IJ
from .hvmodels import (check_factorization, correlated_sources_example, model_IJ, models_IJ,
                       party_strategy_table, random_mixture_blocks, random_model_blocks,
                       strategy_counts, strategy_IJ)
from .network import KIND_P14, KIND_P22, check_kind, standard_scenario

LP_DEFAULT_TOL = 1e-8
BISECTION_MAX_ITER = 60
BISECTION_WIDTH = 1e-7
SINGLE_SOURCE_REFERENCE = 0.7071067811865476  # quoted 1/sqrt(2), not recomputed


# ---------------------------------------------------------------------------
# two-phase feasibility simplex

_PIVOT_EPS = 1e-10


def _pivot(T, r, col):
    """Pivot in place on entry (r, col[r]) of the entering column col, stored or derived: over
    every row when over a quarter of the others are nonzero in col, else over those only."""
    Tr = np.divide(T[r], col[r], out=T[r])
    c = col.copy()
    c[r] = 0.0
    rows = c.nonzero()[0]
    if 4 * rows.size > len(T) - 1:
        T -= np.einsum("i,j->ij", c, Tr)
    else:
        T[rows] -= np.einsum("i,j->ij", c[rows], Tr)


def _lexicographic_row(T, cand, col):
    """Lexicographic tie-break: filter cand column by column (from 0, within 1e-12) on its
    scaled rows T[i] / col[i], jumping to each column that splits them (two rows at once)."""
    V = T[cand] / col[cand, None]
    while cand.size > 2:
        keep = V <= V.min(axis=0) + 1e-12
        tied = keep.all(axis=0)
        c = int(tied.argmin())
        if tied[c]:
            break
        cand, V = cand[keep[:, c]], V[keep[:, c], c + 1:]
    if cand.size == 2:
        a, b = V
        split = (a > b + 1e-12) | (b > a + 1e-12)
        c = split.argmax()
        return int(cand[1] if split[c] and a[c] > b[c] else cand[0])
    return int(cand[0])


def _phase1_simplex(A, b, stop):
    """Minimize the L1 violation of A q = b over q >= 0.

    Columns are [q, s+, s-] with A q + s+ - s- = b; the starting basis is s+
    after flipping rows to make b nonnegative.  Only the rows [q | s+ | rhs]
    are stored: pivots keep s- the exact negation of s+, so an entering s-
    column is derived as -T[:, s+].  The reduced costs R and the objective
    start from the full tableau's column sums and take R[j] times the pivot
    row, its s- part negated from s+.  Entering column: most negative reduced
    cost.  Leaving row: lexicographic ratio test over the rows positive in
    it, which keeps the walk finite on these heavily degenerate polytopes.
    Returns (q, objective, iterations) once the violation is at most `stop`.
    """
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    m, nv = A.shape
    flip = b < 0
    T = np.zeros((m, nv + m + 1))
    T[:, :nv] = np.where(flip[:, None], -A, A)
    T[:, nv:-1] = np.eye(m)
    T[:, -1] = np.where(flip, -b, b)
    basis = np.arange(nv, nv + m)
    # minus the column sums plus the unit costs: 0 on s+ (sums 1), 2 on s- (sums -1)
    sums = -T.sum(axis=0)
    R, objective = np.concatenate([sums[:nv], np.zeros(m), np.full(m, 2.0)]), sums[-1]
    update, rhs = np.empty_like(R), T[:, -1]
    q_s_plus, s_plus, s_minus = update[:nv + m], update[nv:nv + m], update[nv + m:]
    max_iter, it = 2000 * (m + nv), 0
    while it < max_iter and -objective > stop:
        j = int(R.argmin())
        if R[j] >= -_PIVOT_EPS:
            break
        col = T[:, j] if j < nv + m else -T[:, j - m]
        rows = (col > _PIVOT_EPS).nonzero()[0]
        if not rows.size:  # phase 1 is bounded below by 0: numerical breakdown
            break
        ratios = rhs[rows] / col[rows]
        rows = rows[ratios <= ratios[ratios.argmin()] + 1e-12]
        r = int(rows[0]) if rows.size == 1 else _lexicographic_row(T, rows, col)
        _pivot(T, r, col)
        objective -= R[j] * rhs[r]
        np.multiply(T[r, :-1], R[j], out=q_s_plus)
        np.negative(s_plus, out=s_minus)
        R -= update
        basis[r] = j
        it += 1
    q = np.zeros(nv)
    q[basis[basis < nv]] = rhs[basis < nv]
    return q, float(-objective), it


@dataclass(eq=False)
class LPResult:
    """Outcome of a local-membership LP."""

    feasible: bool
    max_residual: float
    phase1_objective: float
    iterations: int
    tol: float
    weights: np.ndarray | None = None

    def to_json(self) -> dict:
        doc = dict(vars(self))
        doc["weights"] = None if self.weights is None else self.weights.tolist()
        return doc


def strategy_behavior_matrix(kind: str, n: int) -> np.ndarray:
    """D[s, x, a]: behavior table of every deterministic strategy tuple.

    D is the Kronecker product of the party tables, so strategy tuples,
    inputs and outputs all run in row-major party order, as in the table.
    More than LP_CELL_GUARD cells are refused before any table is built.
    """
    check_size(table_cells(n) ** 2, LP_CELL_GUARD, f"cells the LP strategy matrix needs at n = {n}")
    return reduce(np.kron, [party_strategy_table(kind, n, p) for p in range(n + 1)])


def _kept_rows(kind: str, n: int) -> np.ndarray:
    """Flat table cells that span every no-signalling behavior.

    Each party keeps all outcomes at input 0 and all but the last outcome
    at its other inputs (Collins & Gisin, J. Phys. A 37, 1775 (2004)); the
    kept cells are the product of these selections, in table order:
    3**(n+1) rows for p22 and 9 * 4**(n-1) for p14.  On the no-signalling
    hull, which holds every strategy column, a dropped cell is a +-1 sum
    of at most 3**(n+1) kept cells.
    """
    masks = []
    for num_in, num_out in zip(*alphabets(kind, n)):
        mask = np.ones((num_in, num_out), dtype=bool)
        mask[1:, -1] = False
        masks.append(mask)
    return np.flatnonzero(reduce(np.kron, masks))


class _BlockShape(NamedTuple):
    """How a membership LP splits into blocks, from the alphabets alone."""

    labels: list   # parties with one input: their outcomes pick a block
    others: list   # the other parties, whose strategy matrix every block is
    blocks: int
    rows: int      # a block's kept rows, _kept_rows' selection of its cells
    tuples: int    # a block's strategy tuples


def _block_shape(kind: str, n: int) -> _BlockShape:
    ins, outs = alphabets(kind, n)
    labels = [p for p in range(n + 1) if ins[p] == 1]
    others = [p for p in range(n + 1) if ins[p] > 1]
    return _BlockShape(labels, others,
                       blocks=math.prod(outs[p] for p in labels),
                       rows=math.prod(outs[p] + (ins[p] - 1) * (outs[p] - 1) for p in others),
                       tuples=math.prod(outs[p] ** ins[p] for p in others))


def check_lp_size(kind: str, n: int) -> None:
    """Refuse the (kind, n) membership LP over LP_CELL_GUARD before anything
    is built.  One block (p22) is priced by its strategy matrix, a row per
    strategy tuple and a column per table cell; several (p14) by their
    tableaux, kept rows x (strategy tuples + kept rows + 1) each.  Past
    n = 64 the shape at n = 64, already over the budget, stands in."""
    shape = _block_shape(kind, min(n, 64))
    if shape.blocks == 1:
        check_size(shape.tuples * table_cells(n), LP_CELL_GUARD,
                   f"cells the LP strategy matrix needs at n = {n}")
    else:
        check_size(shape.blocks * shape.rows * (shape.tuples + shape.rows + 1), LP_CELL_GUARD,
                   f"tableau cells the {kind} LP's blocks need at n = {n}")


class _LPBlocks(NamedTuple):
    """A membership LP as independent blocks that share one matrix."""

    full: np.ndarray        # (block cells, block strategy tuples)
    kept: np.ndarray        # its kept rows, the matrix phase 1 sees
    cells: np.ndarray       # (blocks, block cells): flat table cell of each row
    kept_cells: np.ndarray  # (blocks, kept rows): the kept rows' cells
    tuples: np.ndarray      # (blocks, block strategy tuples): flat tuple of each column


@cache
def _lp_matrices(kind: str, n: int) -> _LPBlocks:
    """The (kind, n) membership LP as blocks, built once per process and
    read-only.

    A party with one input answers with its strategy, so its outcome is a
    classical label and its factor of A[keep] is the identity.  Fixed
    outcomes of all such parties pick one block: rows with those outcomes
    and strategy tuples with those strategies, zero elsewhere in both.
    Every block's matrix is the strategy matrix of the other parties, with
    their kept rows (_kept_rows).  In p14 the intermediates are such
    parties: 4**(n-1) blocks of 9 kept rows by 16 end-pair tuples.  p22 has
    none and is one block, A and A[keep] as a whole.  check_lp_size refuses
    a size before anything is built or cached.
    """
    check_lp_size(kind, n)
    ins, outs = alphabets(kind, n)
    shape = _block_shape(kind, n)
    labels, others = shape.labels, shape.others
    D = reduce(np.kron, [party_strategy_table(kind, n, p) for p in others])
    full = D.reshape(len(D), -1).T
    # table axes (x_0..x_n, a_0..a_n) and tuple axes (s_0..s_n), labels first
    axes = labels + [n + 1 + p for p in labels] + others + [n + 1 + p for p in others]
    cells = np.arange(table_cells(n)).reshape(ins + outs).transpose(axes).reshape(shape.blocks, -1)
    counts = strategy_counts(kind, n)
    tuples = np.arange(math.prod(counts)).reshape(counts).transpose(labels + others)
    keep = np.isin(cells[0], _kept_rows(kind, n)).nonzero()[0]
    lp = _LPBlocks(full, full[keep], cells, cells[:, keep], tuples.reshape(shape.blocks, -1))
    for a in lp:
        a.setflags(write=False)
    return lp


def lp_local_membership(b: Behavior, tol: float = LP_DEFAULT_TOL) -> LPResult:
    """Decide whether a behavior is a mixture of deterministic strategies.

    Phase 1 runs on each block of _lp_matrices in turn, on the rows
    _kept_rows selects, and stops at the block's share of tol / 1000;
    blocks whose right-hand sides are equal bit for bit share one walk.
    iterations and the phase-1 objective are sums over the blocks, and the
    reported residual is the max over the full table, which the blocks
    cover.  Feasible means that residual is <= tol, in which case the
    witness weights are returned, one per strategy tuple.  Infeasibility is
    certified by a strictly positive L1 optimum, or, for a signalling
    behavior, by a dropped row showing up in the residual.
    """
    if not tol > 0:
        raise RangeError(f"tol must be positive, got {tol}")
    lp = _lp_matrices(b.kind, b.n)
    rhs = b.table.reshape(-1)
    # a dropped cell's residual sums at most 243 kept ones of its block
    # (p22, n <= 4) or 9 (p14), and the blocks' violations add up
    stop = tol / 1000 / len(lp.cells)
    weights = np.zeros(lp.tuples.size)
    objectives, iterations, residual = [], 0, 0.0
    walks = {}  # a walk is a function of its right-hand side's bits
    for cells, kept_cells, tuples in zip(lp.cells, lp.kept_cells, lp.tuples):
        block = rhs[kept_cells]
        if (key := block.tobytes()) not in walks:
            walks[key] = _phase1_simplex(lp.kept, block, stop)
        q, objective, it = walks[key]
        weights[tuples] = q
        objectives.append(objective)
        iterations += it
        residual = max(residual, float(np.abs(lp.full @ q - rhs[cells]).max()))
    feasible = residual <= tol
    return LPResult(
        feasible=feasible,
        max_residual=residual,
        # started from the first block, so that one block's objective is kept as is
        phase1_objective=sum(objectives[1:], objectives[0]),
        iterations=iterations,
        tol=tol,
        weights=weights if feasible else None,
    )


def chain_pr_behavior(kind: str, n: int) -> Behavior:
    """Nonlocal reference point: ends share a PR box, intermediates are noise.

    a1 xor alast = x1 * xlast with uniform end marginals; every intermediate
    outputs uniformly, independent of everything.  All I/J correlators vanish
    (the intermediates average out), yet no local model reproduces the
    end-pair marginal, so the membership LP must report infeasible.
    """
    ins, outs = alphabets(kind, n)
    xs = np.indices(ins).reshape(n + 1, -1)
    av = np.indices(outs).reshape(n + 1, -1)
    ok = (av[0] ^ av[-1])[None, :] == (xs[0] & xs[-1])[:, None]
    return Behavior(kind, n, ok / (2.0 * math.prod(outs[1:-1])))


# ---------------------------------------------------------------------------
# exact decomposition of the analytic quantum point

@dataclass
class DecompositionReport:
    """Exact check that the analytic table is the even mixture of the tables
    of two n-local models, P_I at (I, J) = (-1, 0) and P_J at (0, -1)."""

    kind: str
    n: int
    exact_mixture: bool
    pi_IJ: tuple[Fraction, Fraction]
    pj_IJ: tuple[Fraction, Fraction]

    @property
    def ok(self) -> bool:
        return (self.exact_mixture
                and abs(self.pi_IJ[0]) == 1 and self.pi_IJ[1] == 0
                and self.pj_IJ[0] == 0 and abs(self.pj_IJ[1]) == 1)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "exact_mixture": self.exact_mixture,
            "pi_I": str(self.pi_IJ[0]), "pi_J": str(self.pi_IJ[1]),
            "pj_I": str(self.pj_IJ[0]), "pj_J": str(self.pj_IJ[1]),
            "ok": self.ok,
        }


def _exact_IJ(kind: str, n: int, table) -> tuple[Fraction, Fraction]:
    ins, outs = alphabets(kind, n)
    I = Fraction(0)
    J = Fraction(0)
    for x1 in (0, 1):
        for xlast in (0, 1):
            for sel, mids in ((0, (0,) * (n - 1)), (1, (1,) * (n - 1))):
                if kind == KIND_P22:
                    xs = (x1,) + mids + (xlast,)
                else:
                    xs = (x1,) + (0,) * (n - 1) + (xlast,)
                corr = Fraction(0)
                for av in product(*[range(k) for k in outs]):
                    if kind == KIND_P22:
                        parity = sum(av)
                    else:
                        bits = [(m >> 1) if sel == 0 else (m & 1) for m in av[1:-1]]
                        parity = av[0] + av[-1] + sum(bits)
                    corr += (-1) ** parity * table[xs, av]
                if sel == 0:
                    I += corr
                else:
                    J += (-1) ** (x1 + xlast) * corr
    return I / 4, J / 4


def decomposition_check(kind: str, n: int) -> DecompositionReport:
    """Check P_Q = (P_I + P_J)/2 for the analytic table P_Q and the tables of
    the two n-local models of hvmodels.decomposition_model.  Every entry is
    dyadic, so float64 holds the identity exactly and array_equal checks it
    with no tolerance; the extremal (I, J) from model_IJ are exact Fractions.
    """
    check_kind(kind)
    if n < 2:
        raise RangeError(f"chain needs n >= 2, got {n}")
    check_size(table_cells(n), OUTPUT_CELL_GUARD, f"table cells of a decomposition at n = {n}")
    closed_form = closed_form_p22_end_parity if kind == KIND_P22 else closed_form_p14
    pi, pj = (hvmodels.decomposition_model(kind, n, which) for which in (0, 1))
    mixture = hvmodels.behavior_of_model(pi).table + hvmodels.behavior_of_model(pj).table
    return DecompositionReport(
        kind=kind, n=n,
        exact_mixture=np.array_equal(2 * closed_form(n).table, mixture),
        pi_IJ=tuple(map(Fraction, model_IJ(pi))),
        pj_IJ=tuple(map(Fraction, model_IJ(pj))),
    )


# ---------------------------------------------------------------------------
# visibility thresholds

@dataclass
class ThresholdResult:
    """Crossing of a bound value under a scaled visibility profile."""

    kind: str
    n: int
    bound: str
    scale: float
    alphas: list[float]
    product: float
    value_at_threshold: float
    iterations: int
    bracket_width: float
    single_source_reference: float = SINGLE_SOURCE_REFERENCE

    def to_json(self) -> dict:
        return {
            "kind": self.kind, "n": self.n, "bound": self.bound,
            "scale": self.scale, "alphas": self.alphas, "product": self.product,
            "value_at_threshold": self.value_at_threshold,
            "iterations": self.iterations, "bracket_width": self.bracket_width,
            "single_source_reference": self.single_source_reference,
        }


_INTERPOLANT_BAND = 1e-9  # a step interpolated this close to 1 reads the exact line


def _bound_at(IJ_at, s, bound, interpolant=None):
    """The bound value at s: the interpolant's, in plain floats, unless
    there is none or it lies within _INTERPOLANT_BAND of 1; then the exact
    line's, with bound_values' checks."""
    if interpolant is not None:
        I, J = interpolant(s)
        value = math.sqrt(abs(I)) + math.sqrt(abs(J)) if bound == "nlocal" else abs(I) + abs(J)
        if abs(value - 1.0) > _INTERPOLANT_BAND:
            return value
    report = bound_values(*IJ_at(s))
    return report.nlocal_value if bound == "nlocal" else report.local_value


def _line_interpolant(IJ_at, m: int):
    """s -> (I, J) on a line where both are polynomials of degree m, from
    their exact values at the m + 1 Chebyshev points of [0, 1] (one call of
    IJ_at), by the barycentric formula (Higham, IMA J. Numer. Anal. 24, 547
    (2004)) in plain floats; at a node, its exact values."""
    nodes = [(1.0 - math.cos(math.pi * k / m)) / 2.0 for k in range(m + 1)]
    I, J = IJ_at(np.array(nodes))
    # the weights of these nodes: (-1)^k, halved at the two ends
    terms = [(x, (-1.0) ** k * (0.5 if k in (0, m) else 1.0), i, j)
             for k, (x, i, j) in enumerate(zip(nodes, I, J))]
    at_node = dict(zip(nodes, zip(I, J)))

    def interpolant(s):
        if s in at_node:
            return at_node[s]
        d = i = j = 0.0
        for x, w, node_i, node_j in terms:
            c = w / (s - x)
            d, i, j = d + c, i + c * node_i, j + c * node_j
        return i / d, j / d

    return interpolant


def visibility_threshold(kind: str, n: int, profile=None,
                         bound: str = "nlocal") -> ThresholdResult:
    """Bisect the visibility scale at which a bound value crosses 1.

    With no profile, all sources share visibility s (the scale itself).  With
    a profile, source 1's visibility is scaled by s while the rest stay
    fixed; the profile must violate the bound at s = 1, otherwise there is
    no crossing in [0, 1] and NoCrossingError is raised.

    The search reads werner_IJ on the standard scenario, whose parties,
    checked once per process, build their factors once per process too, so
    the set-up checks no operator or state.  It walks one line,
    alphas(s) = base + s*step, through that function's line form: the
    line's ends are validated once, the parties past the last moving source
    are contracted once into a right environment, and an evaluation sweeps
    the moving prefix into it.  Each party factor is affine in its
    visibility, so I and J are polynomials in s of degree m, the number of
    moving sources (1 with a profile, n without).  The line is evaluated
    once at the m + 1 Chebyshev points of [0, 1] and each bisection step is
    decided on the interpolant (_line_interpolant); a step whose value there
    lies within _INTERPOLANT_BAND of 1, the bracket end and the reported
    value read the exact line, so every result is the one of a search on the
    exact line.  No evaluation builds or validates a source, and no table is
    made.  Chains longer than CHAIN_LENGTH_GUARD are refused before anything
    is built.
    """
    check_kind(kind)
    check_size(n, CHAIN_LENGTH_GUARD, f"chain of {n} sources")
    if bound not in ("nlocal", "local"):
        raise RangeError(f"bound must be 'nlocal' or 'local', got {bound}")
    if profile is None:
        base, step = [0.0] * n, [1.0] * n
    else:
        # source 1 moves from 0 to its value; the line checks both ends
        profile = [float(a) for a in profile]
        base = [0.0 if p == 0 else a for p, a in enumerate(profile)]
        step = [a if p == 0 else 0.0 for p, a in enumerate(profile)]

    IJ_at = werner_IJ(standard_scenario(n, kind)).line(base, step)
    lo, hi = 0.0, 1.0
    value_hi = _bound_at(IJ_at, hi, bound)
    if value_hi <= 1.0:
        raise NoCrossingError(
            f"configuration does not violate at full visibility (value {value_hi:.6f})"
        )
    # m, the degree of I and J along the line, is at least 1 here: m = 0 gives I = J = 0
    interpolant = _line_interpolant(IJ_at, sum(d != 0.0 for d in step))
    iterations = 0
    while iterations < BISECTION_MAX_ITER and hi - lo > BISECTION_WIDTH:
        mid = (lo + hi) / 2.0
        if _bound_at(IJ_at, mid, bound, interpolant) > 1.0:
            hi = mid
        else:
            lo = mid
        iterations += 1
    scale = (lo + hi) / 2.0
    alphas = [b + scale * d for b, d in zip(base, step)]
    return ThresholdResult(
        kind=kind, n=n, bound=bound,
        scale=scale, alphas=alphas,
        product=float(np.prod(alphas)),
        value_at_threshold=_bound_at(IJ_at, scale, bound),
        iterations=iterations, bracket_width=hi - lo,
    )


# ---------------------------------------------------------------------------
# boundary curves

def figure4_report(kind: str = KIND_P22, n: int = 2, grid_step: float = 0.05) -> dict:
    """Plot-ready data for the (I, J) plane: boundaries, curve, special points.

    Returns a dict with the quantum point of the standard chain (I and J from
    chain_IJ), the two extremal points of the analytic decomposition (from
    model_IJ of the two decomposition models), the tightness-model curve
    (I, J) = (r**2, (1-r)**2) evaluated from actual models, and the two
    boundary loci |I| + |J| = 1 and sqrt|I| + sqrt|J| = 1 sampled in the
    first quadrant.  No table is built.  Chains longer than
    CHAIN_LENGTH_GUARD are refused before anything is, and so is a grid whose
    cost, n x grid points, exceeds GRID_POINT_GUARD.
    """
    check_kind(kind)
    check_size(n, CHAIN_LENGTH_GUARD, f"chain of {n} sources")
    if not 0.0 < grid_step <= 0.5:
        raise RangeError(f"grid step must lie in (0, 0.5], got {grid_step}")
    # the np.arange below makes ceil(span) grid points, as numpy computes it;
    # a subnormal step makes span infinite, which math.ceil cannot round
    span = (1.0 + grid_step / 2) / grid_step
    points = math.ceil(span) if span < math.inf else span
    check_size(n * points, GRID_POINT_GUARD,
               f"figure4 of {n} sources at grid step {grid_step:g}: n x grid points")
    qrep = bound_values(*chain_IJ(standard_scenario(n, kind)))
    pi, pj = (model_IJ(hvmodels.decomposition_model(kind, n, which)) for which in (0, 1))

    grid = np.arange(0.0, 1.0 + grid_step / 2, grid_step)
    tight = []
    for r in grid:
        I, J = model_IJ(hvmodels.tightness_model(kind, n, float(r)))
        tight.append({"r": float(r), "I": I, "J": J})

    nlocal_boundary = [{"t": float(t), "I": float(t ** 2), "J": float((1 - t) ** 2)}
                       for t in grid]
    local_boundary = [{"t": float(t), "I": float(t), "J": float(1 - t)} for t in grid]

    return {
        "kind": kind,
        "n": n,
        "grid_step": grid_step,
        "quantum_point": qrep.to_json(),
        "pi_point": {"I": pi[0], "J": pi[1]},
        "pj_point": {"I": pj[0], "J": pj[1]},
        "tightness_curve": tight,
        "nlocal_boundary": nlocal_boundary,
        "local_boundary": local_boundary,
    }


# ---------------------------------------------------------------------------
# Monte-Carlo sweeps

def _best_trial(blocks) -> tuple[float, int]:
    """(largest value, its trial) over (first_trial, values) blocks given in
    trial order; ties go to the earliest trial."""
    worst, worst_trial = -np.inf, -1
    for first, values in blocks:
        i = int(np.argmax(values))
        if values[i] > worst:
            worst, worst_trial = float(values[i]), first + i
    return worst, worst_trial


def _check_sweep(trials: int, seed: int, cost: int, what: str) -> None:
    """Refuse a sweep of `trials` trials of `what` before anything is drawn
    or any worker starts; its cost in drawn cells is bounded by
    SWEEP_CELL_GUARD."""
    if trials < 1:
        raise RangeError(f"trials must be positive, got {trials}")
    if seed < 0:
        raise RangeError(f"seed must be non-negative, got {seed}")
    check_size(cost, SWEEP_CELL_GUARD, f"drawn cells of {trials} trials of {what}")


def _nlocal_block(args):
    kind, n, cardinality, seed, start, stop = args
    blocks = random_model_blocks(kind, n, cardinality, seed, start, stop)
    ijs = ((first, models_IJ(kind, n, dists, responses)) for first, dists, responses in blocks)
    return _best_trial((first, np.sqrt(np.abs(I)) + np.sqrt(np.abs(J))) for first, (I, J) in ijs)


def mc_nlocal_sweep(kind: str, n: int, cardinality: int, trials: int,
                    seed: int, workers: int = 1) -> dict:
    """Sample random n-local models and track the largest sqrt|I|+sqrt|J|.

    Trial t uses the PRNG derived from (seed, t), so the result does not
    depend on how trials are split across workers.  The trials are split
    into `workers` jobs, run by at most one process per job and per core.
    A sweep is priced as its drawn cells plus SWEEP_TRIAL_CELLS per trial
    and SWEEP_PARTY_CELLS per party and block of trials; one over
    SWEEP_CELL_GUARD is refused before anything is drawn or any worker
    starts.
    """
    shapes = hvmodels._random_model_shapes(kind, n, cardinality)
    cells = sum(map(math.prod, shapes))
    blocks = -(-trials // max(1, hvmodels.MC_BLOCK_CELLS // cells))
    _check_sweep(trials, seed, trials * (cells + SWEEP_TRIAL_CELLS)
                 + blocks * (n + 1) * SWEEP_PARTY_CELLS,
                 f"{kind} models at n = {n}, K = {cardinality}")
    # beyond one job per trial, more workers only add empty jobs
    workers = min(max(1, int(workers)), trials)
    if workers == 1:
        worst, worst_trial = _nlocal_block((kind, n, cardinality, seed, 0, trials))
    else:
        bounds = np.linspace(0, trials, workers + 1).astype(int)
        jobs = [(kind, n, cardinality, seed, int(a), int(b))
                for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
        processes = min(len(jobs), behavior._cores())
        with concurrent.futures.ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(_nlocal_block, jobs))
        # ties resolve to the earliest trial, matching the single-worker walk
        worst, worst_trial = max(results, key=lambda t: (t[0], -t[1]))
    return {
        "kind": kind, "n": n, "cardinality": cardinality,
        "trials": trials, "seed": seed, "prng": hvmodels.PRNG_ALGORITHM,
        "max_nlocal_value": worst, "argmax_trial": worst_trial,
        "bound_satisfied": bool(worst <= 1.0 + 1e-9),
    }


def mc_local_mixture_sweep(kind: str, n: int, trials: int, seed: int) -> dict:
    """Sample mixtures of deterministic strategy tuples; track max |I|+|J|.

    I and J are linear in the mixture, so a block of trials is one matrix
    product of its weights with the per-tuple correlator values.  Chains
    longer than CHAIN_LENGTH_GUARD, and trials x strategy tuples over
    SWEEP_CELL_GUARD, are refused before anything is built or drawn.
    """
    check_size(n, CHAIN_LENGTH_GUARD, f"chain of {n} sources")
    _check_sweep(trials, seed, trials * math.prod(strategy_counts(kind, n)),
                 f"{kind} mixtures at n = {n}")
    vij = np.stack(strategy_IJ(kind, n), axis=1)
    worst, worst_trial = _best_trial((first, np.abs(q @ vij).sum(axis=1))
                                     for first, q in random_mixture_blocks(len(vij), seed, 0, trials))
    return {
        "kind": kind, "n": n, "trials": trials, "seed": seed,
        "prng": hvmodels.PRNG_ALGORITHM,
        "max_local_value": worst, "argmax_trial": worst_trial,
        "bound_satisfied": bool(worst <= 1.0 + 1e-9),
    }


def correlated_sources_demo() -> dict:
    """Classical model with a shared hidden bit that fakes the quantum point.

    Mixing the two extreme tightness models (r = 1 and r = 0) through a
    common branch bit is not n-local -- the branch correlates the sources --
    and indeed I = J = 1/2 gives sqrt|I| + sqrt|J| = sqrt(2) > 1.  The
    strategy weights of a genuinely correlated 3-source law are also checked
    against the factorization identities.
    """
    (i1, j1), (i0, j0) = (model_IJ(hvmodels.tightness_model(KIND_P22, 3, r)) for r in (1.0, 0.0))
    # I and J are linear in the behavior, so the even mixture's are the means
    report = bound_values((i1 + i0) / 2, (j1 + j0) / 2)
    factor = check_factorization(correlated_sources_example(3))
    return {
        "mixture_IJ": [report.I, report.J],
        "mixture_nlocal_value": report.nlocal_value,
        "exceeds_nlocal_bound": report.violates_nlocal,
        "factorization_violations": factor.to_json(),
        "expected_non_n_local": True,
    }


def monte_carlo_bound_suite(kinds=(KIND_P22, KIND_P14), ns=(2, 3, 4),
                              cardinalities=(2, 3, 4), trials: int = 10_000,
                              seed: int = 0, workers: int = 1,
                              mixture_ns=(2, 3, 4)) -> dict:
    """Full sweep: random models per (kind, n, K), local mixtures per n,
    plus the correlated-sources demonstration."""
    nlocal_runs = []
    for kind in kinds:
        for n in ns:
            for k in cardinalities:
                nlocal_runs.append(mc_nlocal_sweep(kind, n, k, trials, seed, workers))
    mixture_runs = []
    for kind in kinds:
        for n in mixture_ns:
            mixture_runs.append(mc_local_mixture_sweep(kind, n, trials, seed))
    return {
        "trials": trials,
        "seed": seed,
        "prng": hvmodels.PRNG_ALGORITHM,
        "nlocal_sweeps": nlocal_runs,
        "local_mixture_sweeps": mixture_runs,
        "correlated_sources": correlated_sources_demo(),
        "all_bounds_satisfied": bool(
            all(r["bound_satisfied"] for r in nlocal_runs)
            and all(r["bound_satisfied"] for r in mixture_runs)
        ),
    }
