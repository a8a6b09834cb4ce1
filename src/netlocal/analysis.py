"""Certification tools: LP membership, decompositions, thresholds, sweeps.

The local-polytope membership test runs a dense two-phase feasibility
simplex written here (no external solver): phase one minimizes the L1
constraint violation with paired artificial columns; a behavior is a member
exactly when some strategy mixture reproduces its table within tolerance.

Also here: the exact-rational decomposition identity of the analytic quantum
point, visibility-threshold bisection on Werner-type sources, plot-ready
boundary curves in the (I, J) plane, and seeded Monte-Carlo sweeps over
random models and local mixtures.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from . import hvmodels
from .behavior import Behavior, bound_values, compute_IJ, mix_behaviors, alphabets
from .errors import (NoCrossingError, RangeError, ScenarioError, SizeGuardError)
from .evaluator import chain_IJ
from .hvmodels import (check_factorization, correlated_sources_example, model_IJ,
                       party_strategy_table, sample_random_model, strategy_counts,
                       strategy_IJ, trial_rng)
from .network import (KIND_P14, KIND_P22, SourceState, check_kind, standard_scenario,
                      werner)

LP_DEFAULT_TOL = 1e-8
BISECTION_MAX_ITER = 60
BISECTION_WIDTH = 1e-7
SINGLE_SOURCE_REFERENCE = 0.7071067811865476  # quoted 1/sqrt(2), not recomputed


# ---------------------------------------------------------------------------
# two-phase feasibility simplex

_PIVOT_EPS = 1e-10


def _independent_rows(A, b, tol=1e-9):
    """Indices of a maximal linearly independent row set of [A | b].

    Gaussian elimination with partial pivoting over the columns of A.  Every
    dropped row is an exact linear combination of the kept ones (including
    its b entry), so any q solving the kept equalities solves the dropped
    ones too; an inconsistent system instead leaves a dropped row with a
    nonzero b part, which the caller's full-system residual check exposes.
    """
    M = np.hstack([np.asarray(A, float), np.asarray(b, float)[:, None]])
    m = M.shape[0]
    unused = np.ones(m, dtype=bool)
    kept = []
    for col in range(M.shape[1] - 1):
        rows = np.nonzero(unused)[0]
        if rows.size == 0:
            break
        i = rows[np.argmax(np.abs(M[rows, col]))]
        if abs(M[i, col]) <= tol:
            continue
        unused[i] = False
        kept.append(int(i))
        factor = M[:, col] / M[i, col]
        factor[i] = 0.0
        M -= np.outer(factor, M[i])
    return sorted(kept)


def _phase1_simplex(A, b, max_iter=None):
    """Minimize the L1 violation of A q = b over q >= 0.

    Columns are [q, s+, s-] with A q + s+ - s- = b; the starting basis is s+
    after flipping rows to make b nonnegative.  Entering column: most
    negative reduced cost.  Leaving row: lexicographic ratio test, which
    keeps the walk finite on the heavily degenerate facet instances these
    polytopes produce.

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
    cost = np.zeros(ncols + 1)
    cost[nv:ncols] = 1.0
    T[m] = cost - T[:m].sum(axis=0)
    T[m, ncols] = -b.sum()

    if max_iter is None:
        max_iter = 2000 * (m + nv)
    it = 0
    while it < max_iter:
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
        piv = T[r, j]
        T[r] /= piv
        rows = np.arange(m + 1) != r
        T[rows] -= np.outer(T[rows, j], T[r])
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
        return {
            "feasible": self.feasible,
            "max_residual": self.max_residual,
            "phase1_objective": self.phase1_objective,
            "iterations": self.iterations,
            "tol": self.tol,
            "weights": None if self.weights is None else self.weights.tolist(),
        }


def strategy_behavior_matrix(kind: str, n: int) -> np.ndarray:
    """D[s, x, a]: behavior table of every deterministic strategy tuple."""
    counts = strategy_counts(kind, n)
    if int(np.prod(counts)) > hvmodels.STRATEGY_SPACE_GUARD:
        raise SizeGuardError(f"strategy space {np.prod(counts)} exceeds guard")
    D = party_strategy_table(kind, n, 0)
    for p in range(1, n + 1):
        t = party_strategy_table(kind, n, p)
        D = np.einsum("SXA,sxa->SsXxAa", D, t)
        D = D.reshape(D.shape[0] * D.shape[1], D.shape[2] * D.shape[3],
                      D.shape[4] * D.shape[5])
    return D


def lp_local_membership(b: Behavior, tol: float = LP_DEFAULT_TOL) -> LPResult:
    """Decide whether a behavior is a mixture of deterministic strategies.

    Rows of the equality system that are linearly dependent (most are: the
    strategy polytope's affine hull has far lower dimension than the table)
    are eliminated before the solve; the reported residual is still the max
    over the full table.  Feasible means that residual is <= tol, in which
    case the witness weights are returned.  Infeasibility is certified by a
    strictly positive L1 optimum or by a dropped inconsistent row showing up
    in the residual.
    """
    if tol <= 0:
        raise RangeError(f"tol must be positive, got {tol}")
    D = strategy_behavior_matrix(b.kind, b.n)
    num_s = D.shape[0]
    A = D.reshape(num_s, -1).T
    rhs = b.table.reshape(-1)
    keep = _independent_rows(A, rhs)
    q, objective, iterations = _phase1_simplex(A[keep], rhs[keep])
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
    check_kind(kind)
    ins, outs = alphabets(kind, n)
    num_in, num_out = int(np.prod(ins)), int(np.prod(outs))
    mid_cells = int(np.prod(outs[1:-1]))
    table = np.zeros((num_in, num_out))
    digits = np.unravel_index(np.arange(num_out), outs)
    for xi in range(num_in):
        xs = np.unravel_index(xi, ins)
        ok = (digits[0] ^ digits[-1]) == (xs[0] & xs[-1])
        table[xi] = ok / (2.0 * mid_cells)
    return Behavior(kind, n, table)


# ---------------------------------------------------------------------------
# exact decomposition of the analytic quantum point

@dataclass
class DecompositionReport:
    """Exact-rational check that the analytic table is an even mixture of a
    pure-I and a pure-J extremal behavior."""

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


def _exact_tables(kind: str, n: int):
    """(P_Q, P_I, P_J) as dicts (xs, outs) -> Fraction, reference convention."""
    ins, outs = alphabets(kind, n)
    pq, pi, pj = {}, {}, {}
    for xs in product(*[range(k) for k in ins]):
        for av in product(*[range(k) for k in outs]):
            if kind == KIND_P14:
                s = (-1) ** (av[0] + av[-1] + 1)
                z = (-1) ** sum(m >> 1 for m in av[1:-1])
                w = (-1) ** (sum(m & 1 for m in av[1:-1]) + xs[0] + xs[-1])
                denom = 4 ** n
            else:
                s = (-1) ** (sum(av) + 1)
                z = 1 if all(x == 0 for x in xs[1:-1]) else 0
                w = ((-1) ** (xs[0] + xs[-1])) if all(x == 1 for x in xs[1:-1]) else 0
                denom = 2 ** (n + 1)
            pq[xs, av] = Fraction(2 + s * z + s * w, 2 * denom)
            pi[xs, av] = Fraction(1 + s * z, denom)
            pj[xs, av] = Fraction(1 + s * w, denom)
    return pq, pi, pj


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
    """Verify P_Q = (P_I + P_J)/2 exactly and the extremal (I, J) values.

    All entries are dyadic rationals, so Fraction arithmetic gives a zero-
    residual identity rather than a float comparison.  P_I carries
    (I, J) = (-1, 0) and P_J carries (0, -1) in the reference convention.
    """
    check_kind(kind)
    if n < 2:
        raise RangeError(f"chain needs n >= 2, got {n}")
    if n > 5:
        raise SizeGuardError("exact decomposition is intended for small n (<= 5)")
    pq, pi, pj = _exact_tables(kind, n)
    exact = all(2 * pq[key] == pi[key] + pj[key] for key in pq)
    for tbl in (pi, pj):
        total_by_x = {}
        for (xs, av), val in tbl.items():
            if val < 0 or val > 1:
                exact = False
            total_by_x[xs] = total_by_x.get(xs, Fraction(0)) + val
        if any(t != 1 for t in total_by_x.values()):
            exact = False
    return DecompositionReport(
        kind=kind, n=n,
        exact_mixture=exact,
        pi_IJ=_exact_IJ(kind, n, pi),
        pj_IJ=_exact_IJ(kind, n, pj),
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


def _bound_at(scenario, alphas, bound):
    sources = [SourceState(werner(a), alpha=a) for a in alphas]
    report = bound_values(*chain_IJ(scenario, sources))
    return report.nlocal_value if bound == "nlocal" else report.local_value


def visibility_threshold(kind: str, n: int, profile=None,
                         bound: str = "nlocal") -> ThresholdResult:
    """Bisect the visibility scale at which a bound value crosses 1.

    With no profile, all sources share visibility s (the scale itself).  With
    a profile, source 1's visibility is scaled by s while the rest stay
    fixed; the profile must violate the bound at s = 1, otherwise there is
    no crossing in [0, 1] and NoCrossingError is raised.

    The settings are built and validated once; each bisection step builds
    only the n sources and evaluates I and J with chain_IJ, so no table is
    made and any chain length is accepted.
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

    scenario = standard_scenario(n, kind)
    lo, hi = 0.0, 1.0
    value_hi = _bound_at(scenario, alphas_at(hi), bound)
    if value_hi <= 1.0:
        raise NoCrossingError(
            f"configuration does not violate at full visibility (value {value_hi:.6f})"
        )
    iterations = 0
    while iterations < BISECTION_MAX_ITER and hi - lo > BISECTION_WIDTH:
        mid = (lo + hi) / 2.0
        if _bound_at(scenario, alphas_at(mid), bound) > 1.0:
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
        value_at_threshold=_bound_at(scenario, alphas, bound),
        iterations=iterations, bracket_width=hi - lo,
    )


# ---------------------------------------------------------------------------
# boundary curves

def figure4_report(kind: str = KIND_P22, n: int = 2, grid_step: float = 0.05) -> dict:
    """Plot-ready data for the (I, J) plane: boundaries, curve, special points.

    Returns a dict with the quantum point of the standard chain (I and J from
    chain_IJ, no table), the two extremal points of the analytic
    decomposition, the tightness-model curve (I, J) = (r**2, (1-r)**2)
    evaluated from actual models, and the two boundary loci |I| + |J| = 1 and
    sqrt|I| + sqrt|J| = 1 sampled in the first quadrant.  The exact
    decomposition runs first, so n > 5 is refused before anything else.
    """
    check_kind(kind)
    if not 0.0 < grid_step <= 0.5:
        raise RangeError(f"grid step must lie in (0, 0.5], got {grid_step}")
    decomposition = decomposition_check(kind, n)
    qrep = bound_values(*chain_IJ(standard_scenario(n, kind)))

    rs = np.arange(0.0, 1.0 + grid_step / 2, grid_step)
    make = (hvmodels.tightness_model_p22 if kind == KIND_P22
            else hvmodels.tightness_model_p14)
    tight = []
    for r in rs:
        I, J = model_IJ(make(n, float(r)))
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
        "pi_point": {"I": float(decomposition.pi_IJ[0]), "J": float(decomposition.pi_IJ[1])},
        "pj_point": {"I": float(decomposition.pj_IJ[0]), "J": float(decomposition.pj_IJ[1])},
        "tightness_curve": tight,
        "nlocal_boundary": nlocal_boundary,
        "local_boundary": local_boundary,
    }


# ---------------------------------------------------------------------------
# Monte-Carlo sweeps

def _nlocal_block(args):
    kind, n, cardinality, seed, start, stop = args
    worst = -np.inf
    worst_trial = -1
    for trial in range(start, stop):
        model = sample_random_model(kind, n, cardinality, trial_rng(seed, trial))
        I, J = model_IJ(model)
        value = np.sqrt(abs(I)) + np.sqrt(abs(J))
        if value > worst:
            worst, worst_trial = value, trial
    return float(worst), int(worst_trial)


def mc_nlocal_sweep(kind: str, n: int, cardinality: int, trials: int,
                    seed: int, workers: int = 1) -> dict:
    """Sample random n-local models and track the largest sqrt|I|+sqrt|J|.

    Trial t uses the PRNG derived from (seed, t), so the result does not
    depend on how trials are split across workers.
    """
    check_kind(kind)
    if trials < 1:
        raise RangeError(f"trials must be positive, got {trials}")
    workers = max(1, int(workers))
    if workers == 1:
        worst, worst_trial = _nlocal_block((kind, n, cardinality, seed, 0, trials))
    else:
        bounds = np.linspace(0, trials, workers + 1).astype(int)
        jobs = [(kind, n, cardinality, seed, int(a), int(b))
                for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
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

    I and J are linear in the mixture, so each trial is a dot product with
    the per-tuple correlator values.
    """
    check_kind(kind)
    if trials < 1:
        raise RangeError(f"trials must be positive, got {trials}")
    vi, vj = strategy_IJ(kind, n)
    worst = -np.inf
    worst_trial = -1
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        e = rng.exponential(size=vi.size)
        q = e / e.sum()
        value = abs(q @ vi) + abs(q @ vj)
        if value > worst:
            worst, worst_trial = value, trial
    return {
        "kind": kind, "n": n, "trials": trials, "seed": seed,
        "prng": hvmodels.PRNG_ALGORITHM,
        "max_local_value": float(worst), "argmax_trial": int(worst_trial),
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
    b1 = hvmodels.behavior_of_model(hvmodels.tightness_model_p22(3, 1.0))
    b0 = hvmodels.behavior_of_model(hvmodels.tightness_model_p22(3, 0.0))
    mixed = mix_behaviors([0.5, 0.5], [b1, b0])
    report = bound_values(*compute_IJ(mixed))
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
