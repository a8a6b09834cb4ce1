"""Acceptance criteria, one test per criterion.

Each test prints exactly one `criterion N: PASS/FAIL (...)` line (visible
with pytest -s, and in the captured output of a failing run) and then
asserts, so `pytest -v` shows a per-criterion verdict either way.
"""

import math
import time

import numpy as np

from netlocal.analysis import (
    SINGLE_SOURCE_REFERENCE,
    chain_pr_behavior,
    decomposition_check,
    lp_local_membership,
    monte_carlo_bound_suite,
    visibility_threshold,
)
from netlocal.behavior import bound_values, correlator_report, mix_behaviors
from netlocal.evaluator import (
    closed_form_p14,
    closed_form_p22,
    closed_form_p22_end_parity,
    evaluate_chain,
    evaluate_naive,
    to_reference_convention,
)
from netlocal.hvmodels import (
    behavior_of_model,
    check_factorization,
    correlated_sources_example,
    model_IJ,
    q_weights,
    sample_random_model,
    tightness_model,
    trial_rng,
)
from netlocal.network import KIND_P14, KIND_P22, standard_scenario

SQRT2 = math.sqrt(2.0)


def _finish(num, failures, detail):
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num}: {status} ({detail})")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_quantum_violation_magnitude():
    t0 = time.perf_counter()
    failures = []
    for kind, ns in ((KIND_P14, range(2, 7)), (KIND_P22, range(2, 9))):
        for n in ns:
            rep = correlator_report(evaluate_chain(standard_scenario(n, kind)))
            for got, want, name in (
                (abs(rep.I), 0.5, "|I|"),
                (abs(rep.J), 0.5, "|J|"),
                (rep.nlocal_value, SQRT2, "nlocal_value"),
                (rep.local_value, 1.0, "local_value"),
            ):
                if abs(got - want) > 1e-9:
                    failures.append(f"{kind} n={n}: {name}={got!r}, want {want}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _finish(1, failures,
            f"p14 n=2..6 and p22 n=2..8 all give |I|=|J|=0.5, "
            f"sqrt bound {SQRT2:.6f}, linear bound 1.0; {elapsed:.1f}s")


def test_criterion_2_closed_form_oracle_match():
    t0 = time.perf_counter()
    failures = []
    raw_gaps = []
    for n in (2, 3, 4):
        born14 = evaluate_chain(standard_scenario(n, KIND_P14))
        born22 = evaluate_chain(standard_scenario(n, KIND_P22))
        raw14 = float(np.abs(born14.table - closed_form_p14(n).table).max())
        raw22 = float(np.abs(born22.table - closed_form_p22_end_parity(n).table).max())
        plain22 = float(np.abs(
            to_reference_convention(born22).table - closed_form_p22(n).table).max())
        rel14 = float(np.abs(
            to_reference_convention(born14).table - closed_form_p14(n).table).max())
        rel22 = float(np.abs(
            to_reference_convention(born22).table - closed_form_p22_end_parity(n).table).max())
        if rel14 > 1e-10:
            failures.append(f"p14 n={n}: relabeled gap {rel14:.2e}")
        if rel22 > 1e-10:
            failures.append(f"p22 n={n}: relabeled gap {rel22:.2e}")
        # even chains need the end-party bit flip, odd chains none at all
        if (n % 2 == 0) != (raw14 > 1e-3):
            failures.append(f"p14 n={n}: unexpected unrelabeled gap {raw14:.2e}")
        raw_gaps.append(f"n={n}: p14 {raw14:.3f}, p22 {raw22:.3f}, "
                        f"p22-without-end-parity {plain22:.3f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _finish(2, failures,
            "relabeled tables match analytic forms to 1e-10; unrelabeled "
            "mismatch " + "; ".join(raw_gaps) + f"; {elapsed:.1f}s")


def test_criterion_3_tightness_saturation():
    failures = []
    rs = [round(0.05 * k, 2) for k in range(21)]
    for kind in (KIND_P22, KIND_P14):
        for n in (2, 3):
            for r in rs:
                I, J = model_IJ(tightness_model(kind, n, r))
                value = bound_values(I, J).nlocal_value
                if abs(I - r ** 2) > 1e-12:
                    failures.append(f"{kind} n={n} r={r}: I={I!r}")
                if abs(J - (1.0 - r) ** 2) > 1e-12:
                    failures.append(f"{kind} n={n} r={r}: J={J!r}")
                if abs(value - 1.0) > 1e-12:
                    failures.append(f"{kind} n={n} r={r}: bound={value!r}")
    _finish(3, failures,
            "both constructions give I=r^2, J=(1-r)^2 and bound 1.0 on the "
            "r=0..1 grid (step 0.05), n=2 and 3")


def test_criterion_4_monte_carlo_bounds():
    t0 = time.perf_counter()
    failures = []
    suite = monte_carlo_bound_suite(trials=10_000, seed=0, workers=1)
    for run in suite["nlocal_sweeps"]:
        if run["max_nlocal_value"] > 1.0 + 1e-9:
            failures.append(
                f"{run['kind']} n={run['n']} K={run['cardinality']}: "
                f"max {run['max_nlocal_value']!r}")
    for run in suite["local_mixture_sweeps"]:
        if run["max_local_value"] > 1.0 + 1e-9:
            failures.append(f"{run['kind']} n={run['n']} mixtures: "
                            f"max {run['max_local_value']!r}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    worst_model = max(r["max_nlocal_value"] for r in suite["nlocal_sweeps"])
    worst_mix = max(r["max_local_value"] for r in suite["local_mixture_sweeps"])
    _finish(4, failures,
            f"10^4 trials per (kind, n, K) in {{p22,p14}}x{{2,3,4}}x{{2,3,4}}: "
            f"max sqrt-bound {worst_model:.6f}; 10^4 mixtures per (kind, n): "
            f"max linear bound {worst_mix:.6f}; {elapsed:.1f}s")


def test_criterion_5_non_convexity():
    failures = []
    for kind in (KIND_P22, KIND_P14):
        b1 = behavior_of_model(tightness_model(kind, 2, 1.0))
        b0 = behavior_of_model(tightness_model(kind, 2, 0.0))
        for b in (b1, b0):
            component = correlator_report(b).nlocal_value
            if abs(component - 1.0) > 1e-12:
                failures.append(f"{kind} component bound {component!r}")
        mixed = correlator_report(mix_behaviors([0.5, 0.5], [b1, b0]))
        if abs(mixed.nlocal_value - SQRT2) > 1e-12:
            failures.append(f"{kind} mixture bound {mixed.nlocal_value!r}")
    _finish(5, failures,
            "an even mixture of the r=1 and r=0 boundary models reaches "
            f"{SQRT2:.6f} while each component sits at 1.0")


def test_criterion_6_local_membership():
    failures = []
    for kind in (KIND_P22, KIND_P14):
        for n in (2, 3):
            res = lp_local_membership(evaluate_chain(standard_scenario(n, kind)))
            if not res.feasible or res.max_residual > 1e-8:
                failures.append(f"{kind} n={n}: quantum point residual "
                                f"{res.max_residual:.2e}, feasible={res.feasible}")
        pr = lp_local_membership(chain_pr_behavior(kind, 2))
        if pr.feasible:
            failures.append(f"{kind}: chain-PR certified feasible")
        report = decomposition_check(kind, 2)
        report3 = decomposition_check(kind, 3)
        if not (report.ok and report3.ok):
            failures.append(f"{kind}: decomposition not exact")
    _finish(6, failures,
            "quantum points are LP-feasible (residual <= 1e-8, n=2,3), the "
            "chain-PR point is infeasible, and the even-mixture decomposition "
            "is exact in rational arithmetic")


def test_criterion_7_visibility_thresholds():
    failures = []
    for kind in (KIND_P22, KIND_P14):
        for n in range(2, 6):
            equal = visibility_threshold(kind, n)
            uneven = visibility_threshold(kind, n, profile=[0.9] * (n - 1) + [0.8])
            for label, res in (("equal", equal), ("uneven", uneven)):
                if abs(res.product - 0.5) > 1e-6:
                    failures.append(f"{kind} n={n} {label}: product {res.product!r}")
                if abs(res.value_at_threshold - 1.0) > 1e-6:
                    failures.append(f"{kind} n={n} {label}: value "
                                    f"{res.value_at_threshold!r}")
                if res.single_source_reference != SINGLE_SOURCE_REFERENCE:
                    failures.append(f"{kind} n={n} {label}: missing reference")
    if abs(SINGLE_SOURCE_REFERENCE - 1.0 / SQRT2) > 1e-15:
        failures.append("reference constant is not 1/sqrt(2)")
    _finish(7, failures,
            "visibility product at the crossing is 0.5 +- 1e-6 for n=2..5, "
            "both kinds, equal and uneven profiles; reports quote the "
            f"single-source reference {SINGLE_SOURCE_REFERENCE}")


def test_criterion_8_evaluator_equivalence_and_speed():
    failures = []
    for kind in (KIND_P22, KIND_P14):
        for n in (2, 3, 4):
            sc = standard_scenario(n, kind)
            gap = float(np.abs(evaluate_naive(sc).table
                               - evaluate_chain(sc).table).max())
            if gap > 1e-12:
                failures.append(f"{kind} n={n}: naive vs chain gap {gap:.2e}")
    t0 = time.perf_counter()
    big = evaluate_chain(standard_scenario(12, KIND_P22))
    elapsed = time.perf_counter() - t0
    norm = float(np.abs(big.table.sum(axis=1) - 1.0).max())
    if elapsed >= 10.0:
        failures.append(f"n=12 runtime {elapsed:.1f}s >= 10s")
    if norm > 1e-10:
        failures.append(f"n=12 normalization off by {norm:.2e}")
    _finish(8, failures,
            f"chain matches naive to 1e-12 for n<=4; full p22 n=12 table "
            f"({big.table.shape[0]}x{big.table.shape[1]}) in {elapsed:.2f}s")


def test_criterion_9_factorization_identities():
    failures = []
    worst = 0.0
    trials = 100
    for t in range(trials):
        kind = KIND_P22 if t % 2 == 0 else KIND_P14
        cardinality = 2 + t % 3
        model = sample_random_model(kind, 3, cardinality, trial_rng(17, t))
        report = check_factorization(q_weights(model))
        worst = max(worst, report.worst)
        if report.worst > 1e-12:
            failures.append(f"trial {t} ({kind}, K={cardinality}): "
                            f"deviation {report.worst:.2e}")
    injected = check_factorization(correlated_sources_example(3))
    if injected.worst <= 0.01:
        failures.append(f"correlated counterexample deviation {injected.worst!r}")
    _finish(9, failures,
            f"{trials} random 3-source models satisfy all marginal "
            f"factorization identities (worst {worst:.2e}); the correlated-"
            f"source example breaks them by {injected.worst:.2f}")
