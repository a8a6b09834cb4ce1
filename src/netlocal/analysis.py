"""Certification tools: LP membership, decompositions, thresholds, sweeps.

The local-polytope membership test runs a dense two-phase feasibility
simplex written here (no external solver): phase one minimizes the L1
constraint violation with paired artificial columns, over table rows chosen
exactly, party by party, and stops once that violation is negligible; a
behavior is a member exactly when some strategy mixture reproduces its full
table within tolerance.

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
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np

from . import hvmodels
from .behavior import OUTPUT_CELL_GUARD, Behavior, alphabets, bound_values
from .errors import (NoCrossingError, RangeError, ScenarioError, SizeGuardError)
from .evaluator import chain_IJ, closed_form_p14, closed_form_p22_end_parity, werner_IJ
from .hvmodels import (check_factorization, correlated_sources_example, model_IJ, models_IJ,
                       party_strategy_table, random_mixture_blocks, random_model_blocks,
                       strategy_counts, strategy_IJ)
from .network import KIND_P14, KIND_P22, check_kind, standard_scenario

LP_DEFAULT_TOL = 1e-8
LP_CELL_GUARD = 16 ** 5  # D at n = 4 (8 MB); n = 5 needs 134 MB
BISECTION_MAX_ITER = 60
BISECTION_WIDTH = 1e-7
SINGLE_SOURCE_REFERENCE = 0.7071067811865476  # quoted 1/sqrt(2), not recomputed


# ---------------------------------------------------------------------------
# two-phase feasibility simplex

_PIVOT_EPS = 1e-10


def _pivot(T, r, j):
    """Pivot the tableau on entry (r, j), updating only the rows with a
    nonzero in column j: the others would subtract exact zeros."""
    T[r] /= T[r, j]
    rows = np.flatnonzero(T[:, j])
    rows = rows[rows != r]
    T[rows] -= np.outer(T[rows, j], T[r])


def _phase1_simplex(A, b, stop):
    """Minimize the L1 violation of A q = b over q >= 0.

    Columns are [q, s+, s-] with A q + s+ - s- = b; the starting basis is s+
    after flipping rows to make b nonnegative.  Entering column: most
    negative reduced cost.  Leaving row: lexicographic ratio test, which
    keeps the walk finite on the heavily degenerate facet instances these
    polytopes produce.  The walk returns as soon as the violation is at
    most `stop`; without that test a zero violation is followed by
    degenerate pivots until every reduced cost is nonnegative.

    Returns (q, objective, iterations).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, nv = A.shape
    flip = b < 0
    A = np.where(flip[:, None], -A, A)
    b = np.where(flip, -b, b)

    ncols = nv + 2 * m
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :nv] = A
    T[:m, nv:nv + m] = np.eye(m)
    T[:m, nv + m:ncols] = -np.eye(m)
    T[:m, ncols] = b
    basis = np.arange(nv, nv + m)
    # reduced costs for min sum(s+ + s-) with the s+ block basic
    T[m] = -T[:m].sum(axis=0)
    T[m, nv:ncols] += 1.0

    max_iter = 2000 * (m + nv)
    it = 0
    while it < max_iter and -T[m, ncols] > stop:
        red = T[m, :ncols]
        j = int(np.argmin(red))
        if red[j] >= -_PIVOT_EPS:
            break
        col = T[:m, j]
        pos = col > _PIVOT_EPS
        if not pos.any():
            # phase 1 is bounded below by 0, so this is numerical breakdown
            break
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:m, ncols][pos] / col[pos]
        cand = np.nonzero(ratios <= ratios.min() + 1e-12)[0]
        if cand.size > 1:
            # break degenerate ties by the lexicographically smallest
            # scaled row; scans stop as soon as one row remains
            for c in range(ncols + 1):
                v = T[cand, c] / col[cand]
                cand = cand[v <= v.min() + 1e-12]
                if cand.size == 1:
                    break
        r = int(cand[0])
        _pivot(T, r, j)
        basis[r] = j
        it += 1

    q = np.zeros(nv)
    in_q = basis < nv
    q[basis[in_q]] = T[:m, ncols][in_q]
    objective = float(-T[m, ncols])
    return q, objective, it


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


def check_lp_size(kind: str, n: int) -> None:
    """Refuse, before anything is allocated, an LP whose strategy matrix D
    would exceed LP_CELL_GUARD cells; D has 16**(n+1) cells for both kinds."""
    ins, outs = alphabets(kind, n)
    cells = math.prod(strategy_counts(kind, n)) * math.prod(ins) * math.prod(outs)
    if cells > LP_CELL_GUARD:
        raise SizeGuardError(f"LP strategy matrix needs {cells} cells, over "
                             f"{LP_CELL_GUARD} (n <= 4)")


def strategy_behavior_matrix(kind: str, n: int) -> np.ndarray:
    """D[s, x, a]: behavior table of every deterministic strategy tuple.

    D is the Kronecker product of the party tables, so strategy tuples,
    inputs and outputs all run in row-major party order, as in the table.
    """
    check_lp_size(kind, n)
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


def lp_local_membership(b: Behavior, tol: float = LP_DEFAULT_TOL) -> LPResult:
    """Decide whether a behavior is a mixture of deterministic strategies.

    The simplex sees only the rows _kept_rows selects; the reported residual
    is still the max over the full table.  Feasible means that residual is
    <= tol, in which case the witness weights are returned.  Infeasibility
    is certified by a strictly positive L1 optimum, or, for a signalling
    behavior, by a dropped row showing up in the residual.
    """
    if not tol > 0:
        raise RangeError(f"tol must be positive, got {tol}")
    D = strategy_behavior_matrix(b.kind, b.n)
    A = D.reshape(D.shape[0], -1).T
    rhs = b.table.reshape(-1)
    keep = _kept_rows(b.kind, b.n)
    # a dropped cell's residual sums at most 3**(n+1) <= 243 (n <= 4) kept ones
    q, objective, iterations = _phase1_simplex(A[keep], rhs[keep], tol / 1000)
    residual = float(np.abs(A @ q - rhs).max())
    feasible = residual <= tol
    return LPResult(
        feasible=feasible,
        max_residual=residual,
        phase1_objective=objective,
        iterations=iterations,
        tol=tol,
        weights=q if feasible else None,
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
    if 4 ** (n + 1) > OUTPUT_CELL_GUARD:
        raise SizeGuardError(f"decomposition table over {OUTPUT_CELL_GUARD} cells (n <= 11)")
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


def _bound_at(IJ, alphas, bound):
    report = bound_values(*IJ(alphas))
    return report.nlocal_value if bound == "nlocal" else report.local_value


def visibility_threshold(kind: str, n: int, profile=None,
                         bound: str = "nlocal") -> ThresholdResult:
    """Bisect the visibility scale at which a bound value crosses 1.

    With no profile, all sources share visibility s (the scale itself).  With
    a profile, source 1's visibility is scaled by s while the rest stay
    fixed; the profile must violate the bound at s = 1, otherwise there is
    no crossing in [0, 1] and NoCrossingError is raised.

    The settings are built and validated once, and evaluator.werner_IJ
    builds the chain's factors once: each bisection step is n axpys and one
    chain contraction, with no source built or validated and no table made,
    so any chain length is accepted.
    """
    check_kind(kind)
    if bound not in ("nlocal", "local"):
        raise RangeError(f"bound must be 'nlocal' or 'local', got {bound}")
    if profile is None:
        def alphas_at(s):
            return [s] * n
    else:
        profile = [float(a) for a in profile]
        if len(profile) != n:
            raise ScenarioError(f"profile needs {n} entries, got {len(profile)}")
        if any(not 0.0 <= a <= 1.0 for a in profile):
            raise RangeError("profile visibilities must lie in [0, 1]")

        def alphas_at(s):
            return [profile[0] * s] + profile[1:]

    IJ = werner_IJ(standard_scenario(n, kind))
    lo, hi = 0.0, 1.0
    value_hi = _bound_at(IJ, alphas_at(hi), bound)
    if value_hi <= 1.0:
        raise NoCrossingError(
            f"configuration does not violate at full visibility (value {value_hi:.6f})"
        )
    iterations = 0
    while iterations < BISECTION_MAX_ITER and hi - lo > BISECTION_WIDTH:
        mid = (lo + hi) / 2.0
        if _bound_at(IJ, alphas_at(mid), bound) > 1.0:
            hi = mid
        else:
            lo = mid
        iterations += 1
    scale = (lo + hi) / 2.0
    alphas = alphas_at(scale)
    return ThresholdResult(
        kind=kind, n=n, bound=bound,
        scale=scale, alphas=alphas,
        product=float(np.prod(alphas)),
        value_at_threshold=_bound_at(IJ, alphas, bound),
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
    first quadrant.  No table is built, so any n is accepted.
    """
    check_kind(kind)
    if not 0.0 < grid_step <= 0.5:
        raise RangeError(f"grid step must lie in (0, 0.5], got {grid_step}")
    qrep = bound_values(*chain_IJ(standard_scenario(n, kind)))
    pi, pj = (model_IJ(hvmodels.decomposition_model(kind, n, which)) for which in (0, 1))

    rs = np.arange(0.0, 1.0 + grid_step / 2, grid_step)
    tight = []
    for r in rs:
        I, J = model_IJ(hvmodels.tightness_model(kind, n, float(r)))
        tight.append({"r": float(r), "I": I, "J": J})

    ts = np.arange(0.0, 1.0 + grid_step / 2, grid_step)
    nlocal_boundary = [{"t": float(t), "I": float(t ** 2), "J": float((1 - t) ** 2)}
                       for t in ts]
    local_boundary = [{"t": float(t), "I": float(t), "J": float(1 - t)} for t in ts]

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


def _check_sweep(trials: int, seed: int) -> None:
    """Refuse a sweep before anything is drawn or any worker starts."""
    if trials < 1:
        raise RangeError(f"trials must be positive, got {trials}")
    if seed < 0:
        raise RangeError(f"seed must be non-negative, got {seed}")


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
    into `workers` jobs, run by at most one process per job and per CPU.
    """
    check_kind(kind)
    _check_sweep(trials, seed)
    # beyond one job per trial, more workers only add empty jobs
    workers = min(max(1, int(workers)), trials)
    if workers == 1:
        worst, worst_trial = _nlocal_block((kind, n, cardinality, seed, 0, trials))
    else:
        bounds = np.linspace(0, trials, workers + 1).astype(int)
        jobs = [(kind, n, cardinality, seed, int(a), int(b))
                for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
        processes = min(len(jobs), os.cpu_count() or 1)
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
    product of its weights with the per-tuple correlator values.
    """
    check_kind(kind)
    _check_sweep(trials, seed)
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
