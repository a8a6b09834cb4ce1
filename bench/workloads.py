"""Workload definitions: the seeded requests of one pass, and their oracles.

Every request goes through the user entry point `netlocal.cli.main(argv)`
except the large in-memory table, which calls the library the way the
criterion-8 acceptance test does.  Each request carries an oracle that is
independent of the code path it checks where one exists (closed forms,
known LP verdicts, the proved Monte Carlo bounds) and runs outside the timed
region.  The library receives only the generated inputs.

Library calls go through module attributes (`evaluator.evaluate_chain`, not
a name bound here), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from netlocal import analysis, behavior, cli, evaluator, network

# A request that runs longer than this is aborted and counted as failed, so a
# hang cannot stall a run.  `lp_n4` uses its own, much shorter, deadline.
SAFETY_DEADLINE_S = 60.0
LP_N4_DEADLINE_S = 5.0

CLOSED_FORM_ATOL = 1e-9     # |I| = |J| = prod(alpha)/2
ROW_SUM_ATOL = 1e-10
# Written tables up to this many cells are re-read and compared bit for bit,
# the first time each request is checked in a run (every pass rewrites the
# same table to the same path); the p22 n=9 JSON file (1M cells) keeps the
# closed-form check only, since parsing it would take about 2 s.
REREAD_MAX_CELLS = 2 ** 18
THRESHOLD_ATOL = 1e-6       # criterion-7 tolerances
MC_BOUND_ATOL = 1e-9        # the sweeps' own bound_satisfied slack
MC_TRIALS = 1000

# Some sizes come several times per pass, with fresh inputs, so that the
# median and the tail (the 11th slowest request of a pass) fall among
# samples of one size rather than on the boundary between two sizes, where
# machine noise swaps their order.  See the `*_repeats` functions.


def simulate_repeats(fmt: str, n: int) -> int:
    # the n=5 JSON writes hold the median; the n=6 JSON writes sit just below
    # the nine slowest requests and so hold the tail
    if fmt == "json" and n in (5, 6):
        return 5 if n == 5 else 3
    return 1


def threshold_repeats(kind: str, n: int) -> int:
    # sizes up to 6 hold the median; p22 n=8 sits just below the six
    # slowest requests and so holds the tail
    return 3 if n <= 6 or (kind, n) == ("p22", 8) else 1


def lp_repeats(kind: str, n: int) -> int:
    # n=2 holds the median; p14 n=3, the slowest size, holds the tail
    return 3 if n == 2 else 2 if kind == "p14" else 1


@dataclass
class Request:
    """One closed-loop request: a CLI argv, or a library call."""

    label: str
    check: Callable[["Request", "Outcome"], list]
    argv: list | None = None
    call: Callable | None = None
    expect: dict = field(default_factory=dict)
    deadline_s: float = SAFETY_DEADLINE_S
    trials: int = 0
    once: bool = False      # sent once per run rather than in every pass


@dataclass
class Outcome:
    """What the client saw: status, latency, captured output or value."""

    status: str            # "ok", "exit <code>", "deadline" or "raised <error>"
    latency_s: float
    stdout: str = ""
    stderr: str = ""
    value: object = None


@dataclass
class Workload:
    name: str
    requests: list          # one pass, in the order sent
    warmup: Request         # the smallest request, sent once during set-up
    once: list = field(default_factory=list)  # sent once per run, before the first pass


# ---------------------------------------------------------------------------
# oracles: each returns a list of problems, empty when the answer is right

def _payload(outcome: Outcome, problems: list):
    if outcome.status != "ok":
        problems.append(f"status {outcome.status}: {outcome.stderr.strip()[:200]}")
        return None
    try:
        return json.loads(outcome.stdout)
    except ValueError as exc:
        problems.append(f"stdout is not one JSON document: {exc}")
        return None


def _closed_form_problems(I: float, J: float, alphas) -> list:
    target = math.prod(alphas) / 2.0
    out = []
    for name, value in (("I", I), ("J", J)):
        if not abs(abs(value) - target) <= CLOSED_FORM_ATOL:
            out.append(f"|{name}|={abs(value)!r}, closed form prod(alpha)/2={target!r}")
    return out


def _table_problems(table: np.ndarray) -> list:
    worst = float(np.abs(table.sum(axis=1) - 1.0).max())
    out = []
    if not worst <= ROW_SUM_ATOL:
        out.append(f"rows sum to 1 only within {worst:.3e}")
    if table.min() < 0.0 or table.max() > 1.0:
        out.append("table entries outside [0, 1]")
    return out


def read_json_table(path, kind: str, n: int) -> np.ndarray:
    """The table of a behavior JSON file, parsed here, not by the package."""
    ins, outs = behavior.alphabets(kind, n)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("kind") != kind or int(doc.get("n", -1)) != n:
        raise ValueError(f"file describes {doc.get('kind')} n={doc.get('n')}")
    return np.asarray(doc["table"], dtype=float).reshape(math.prod(ins), math.prod(outs))


def read_csv_table(path, kind: str, n: int) -> np.ndarray:
    """The table of a behavior CSV file, parsed here; every cell exactly once."""
    ins, outs = behavior.alphabets(kind, n)
    parties = n + 1
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    digits = np.array([r[:2 * parties] for r in rows], dtype=np.int64).reshape(-1, 2 * parties)
    values = np.fromiter((float(r[-1]) for r in rows), dtype=float, count=len(rows))
    xi = np.ravel_multi_index(tuple(digits[:, :parties].T), ins)
    oi = np.ravel_multi_index(tuple(digits[:, parties:].T), outs)
    shape = (math.prod(ins), math.prod(outs))
    flat = np.ravel_multi_index((xi, oi), shape)
    if flat.size != shape[0] * shape[1] or np.unique(flat).size != flat.size:
        raise ValueError("CSV does not hold every table cell exactly once")
    table = np.empty(shape[0] * shape[1])
    table[flat] = values
    return table.reshape(shape)


def check_simulate(req: Request, outcome: Outcome) -> list:
    problems = []
    doc = _payload(outcome, problems)
    if doc is None:
        return problems
    e = req.expect
    rep = doc["report"]
    problems += _closed_form_problems(rep["I"], rep["J"], e["alphas"])
    ins, outs = behavior.alphabets(e["kind"], e["n"])
    if math.prod(ins) * math.prod(outs) > REREAD_MAX_CELLS:
        return problems
    if e.get("reread"):
        return problems     # this file was compared once already in this run
    e["reread"] = True
    reader = read_csv_table if e["format"] == "csv" else read_json_table
    try:
        table = reader(e["path"], e["kind"], e["n"])
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"written file unreadable: {exc}"]
    problems += _table_problems(table)
    # the written file must round-trip the evaluator's table bit for bit
    reference = evaluator.evaluate_chain(network.standard_scenario(e["n"], e["kind"], e["alphas"]))
    if not np.array_equal(table, reference.table):
        problems.append(f"{e['format']} file differs from the evaluated table")
    return problems


def check_big_table(req: Request, outcome: Outcome) -> list:
    if outcome.status != "ok":
        return [f"status {outcome.status}"]
    b, report = outcome.value
    return (_closed_form_problems(report.I, report.J, req.expect["alphas"])
            + _table_problems(b.table))


def check_threshold(req: Request, outcome: Outcome) -> list:
    problems = []
    doc = _payload(outcome, problems)
    if doc is None:
        return problems
    res = doc["result"]
    if not abs(res["product"] - 0.5) <= THRESHOLD_ATOL:
        problems.append(f"threshold product {res['product']!r}, expected 0.5")
    if not abs(res["value_at_threshold"] - 1.0) <= THRESHOLD_ATOL:
        problems.append(f"value at threshold {res['value_at_threshold']!r}, expected 1")
    return problems


def check_lp(req: Request, outcome: Outcome) -> list:
    problems = []
    doc = _payload(outcome, problems)
    if doc is None:
        return problems
    res, e = doc["result"], req.expect
    if (doc["config"]["kind"], doc["config"]["n"]) != (e["kind"], e["n"]):
        problems.append(f"LP ran on {doc['config']['kind']} n={doc['config']['n']}")
    if res["feasible"] is not e["local"]:
        problems.append(f"LP verdict feasible={res['feasible']}, expected {e['local']}")
    elif e["local"] and not res["max_residual"] <= res["tol"]:
        problems.append(f"feasible with residual {res['max_residual']!r} > tol")
    return problems


def check_montecarlo(req: Request, outcome: Outcome) -> list:
    problems = []
    doc = _payload(outcome, problems)
    if doc is None:
        return problems
    res = doc["result"]
    key = "max_local_value" if req.expect["mixture"] else "max_nlocal_value"
    if res["trials"] != req.trials:
        problems.append(f"ran {res['trials']} trials, asked for {req.trials}")
    if not res[key] <= 1.0 + MC_BOUND_ATOL:
        problems.append(f"{key}={res[key]!r} exceeds the bound 1")
    if res["bound_satisfied"] is not True:
        problems.append("bound_satisfied is not true")
    if not 0 <= res["argmax_trial"] < req.trials:
        problems.append(f"argmax_trial {res['argmax_trial']} out of range")
    return problems


# ---------------------------------------------------------------------------
# request builders

def _alphas(rng: random.Random, n: int) -> list:
    return [rng.uniform(0.5, 1.0) for _ in range(n)]


def _join(values) -> str:
    return ",".join(repr(v) for v in values)


def _simulate_request(rng, workdir, kind, n, fmt, rep=0) -> Request:
    alphas = _alphas(rng, n)
    path = os.path.join(workdir, f"sim-{kind}-n{n}-{rep}.{fmt}")
    return Request(
        label=f"simulate {kind} n={n} {fmt}",
        argv=["simulate", "--n", str(n), "--kind", kind, "--alphas", _join(alphas),
              "--out", path, "--format", fmt],
        check=check_simulate,
        expect={"kind": kind, "n": n, "alphas": alphas, "path": path, "format": fmt},
    )


def _big_table_request(rng, kind, n) -> Request:
    alphas = _alphas(rng, n)

    def call():
        b = evaluator.evaluate_chain(network.standard_scenario(n, kind, alphas))
        return b, behavior.correlator_report(b)

    return Request(label=f"library evaluate_chain+correlator_report {kind} n={n}",
                   call=call, check=check_big_table, expect={"alphas": alphas}, once=True)


def simulate(rng, workdir, tiny=False) -> list:
    sizes = {
        ("p22", "json"): range(2, 10), ("p14", "json"): range(2, 9),
        ("p22", "csv"): range(2, 8), ("p14", "csv"): range(2, 7),
    }
    big_n = 12
    if tiny:
        sizes = {key: range(2, 4) for key in sizes}
        big_n = 5
    reqs = [_simulate_request(rng, workdir, kind, n, fmt, rep)
            for (kind, fmt), ns in sizes.items() for n in ns
            for rep in range(simulate_repeats(fmt, n))]
    reqs.append(_big_table_request(rng, "p22", big_n))
    return reqs


def _uneven_profile(rng, n) -> list:
    # alpha_i = 0.5 ** (u_i / n) with u_i < 0.95 keeps the product above
    # 0.5 ** 0.95 > 0.5, so the profile violates the bound at full scale
    return [0.5 ** (rng.uniform(0.0, 0.95) / n) for _ in range(n)]


def threshold(rng, workdir, tiny=False) -> list:
    ranges = {"p22": range(4, 10), "p14": range(3, 9)}
    if tiny:
        ranges = {"p22": range(4, 5), "p14": range(3, 4)}
    reqs = []
    for kind, ns in ranges.items():
        for n in ns:
            base = ["threshold", "--n", str(n), "--kind", kind]
            for _ in range(threshold_repeats(kind, n)):
                profile = _uneven_profile(rng, n)
                reqs.append(Request(label=f"threshold {kind} n={n} equal", argv=base,
                                    check=check_threshold))
                reqs.append(Request(label=f"threshold {kind} n={n} uneven",
                                    argv=base + ["--alphas", _join(profile)],
                                    check=check_threshold))
    return reqs


def _mixture_weight(rng, local: bool) -> float:
    # PR box plus white noise is local iff w <= 1/2; stay 0.05 away from it
    return rng.uniform(0.05, 0.45) if local else rng.uniform(0.55, 0.95)


def lp(rng, workdir, tiny=False) -> list:
    """Quantum tables and PR-box mixtures are written during set-up; the timed
    requests read them back with `--behavior`."""
    ns = (2,) if tiny else (2, 3)
    reqs = []
    for kind in ("p22", "p14"):
        for n in ns:
            for rep in range(1 if tiny else lp_repeats(kind, n)):
                reqs += _lp_requests(rng, workdir, kind, n, rep)
    return reqs


def _lp_requests(rng, workdir, kind, n, rep) -> list:
    """Quantum tables (JSON and CSV), chain-PR, and four PR-box mixtures,
    two local and two not, one of each per format."""
    lp_args = ["lp", "--n", str(n), "--kind", kind]
    reqs = []
    for fmt in ("json", "csv"):
        path = os.path.join(workdir, f"quantum-{kind}-n{n}-{rep}.{fmt}")
        argv = ["simulate", "--n", str(n), "--kind", kind, "--alphas",
                _join(_alphas(rng, n)), "--out", path, "--format", fmt]
        _write_or_fail(argv)
        reqs.append(Request(label=f"lp {kind} n={n} quantum {fmt}",
                            argv=lp_args + ["--behavior", path], check=check_lp,
                            expect={"kind": kind, "n": n, "local": True}))
    reqs.append(Request(label=f"lp {kind} n={n} chain-pr",
                        argv=lp_args + ["--source", "chain-pr"], check=check_lp,
                        expect={"kind": kind, "n": n, "local": False}))
    pr = analysis.chain_pr_behavior(kind, n)
    noise = behavior.uniform_behavior(kind, n)
    for i, (local, fmt) in enumerate(((True, "json"), (True, "csv"),
                                      (False, "json"), (False, "csv"))):
        w = _mixture_weight(rng, local)
        mixed = behavior.mix_behaviors([w, 1.0 - w], [pr, noise])
        path = os.path.join(workdir, f"mixture{i}-{kind}-n{n}-{rep}.{fmt}")
        save = behavior.save_behavior_csv if fmt == "csv" else behavior.save_behavior_json
        save(mixed, path)
        reqs.append(Request(label=f"lp {kind} n={n} mixture w={w:.3f} {fmt}",
                            argv=lp_args + ["--behavior", path], check=check_lp,
                            expect={"kind": kind, "n": n, "local": local, "w": w}))
    return reqs


def lp_n4(rng, workdir, tiny=False) -> list:
    """The n=4 quantum LP requests, which do not finish within the deadline at
    this commit (a known defect, ROADMAP item 2), after one p22 n=2 request
    that serves as the warm-up.  Kept out of BENCHMARK.json, whose workloads
    must not fail."""
    return [Request(label=f"lp {kind} n={n} quantum", check=check_lp,
                    argv=["lp", "--n", str(n), "--kind", kind],
                    expect={"kind": kind, "n": n, "local": True},
                    deadline_s=LP_N4_DEADLINE_S)
            for kind, n in (("p22", 2), ("p22", 2 if tiny else 4), ("p14", 2 if tiny else 4))]


def montecarlo(rng, workdir, tiny=False) -> list:
    ns, cards, trials = (2, 3, 4), (2, 3, 4), MC_TRIALS
    if tiny:
        ns, cards, trials = (2,), (2,), 20
    reqs = []
    for kind in ("p22", "p14"):
        for n in ns:
            base = ["montecarlo", "--n", str(n), "--kind", kind, "--trials", str(trials),
                    "--workers", "1"]
            for k in cards:
                seed = rng.randrange(2 ** 31)
                reqs.append(Request(label=f"montecarlo {kind} n={n} K={k}",
                                    argv=base + ["--cardinality", str(k), "--seed", str(seed)],
                                    check=check_montecarlo, trials=trials,
                                    expect={"mixture": False}))
            seed = rng.randrange(2 ** 31)
            reqs.append(Request(label=f"montecarlo {kind} n={n} mixture",
                                argv=base + ["--mixture", "--seed", str(seed)],
                                check=check_montecarlo, trials=trials,
                                expect={"mixture": True}))
    return reqs


def _write_or_fail(argv) -> None:
    """Set-up write through the CLI; a failure here aborts the run."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"set-up request {argv} exited {code}: {out.getvalue()[:200]}")


BUILDERS = {
    "simulate": simulate,
    "threshold": threshold,
    "lp": lp,
    "montecarlo": montecarlo,
    "lp_n4": lp_n4,
}


def build(name: str, seed: int, workdir: str, tiny: bool = False) -> Workload:
    """All inputs of a workload, generated from `seed` alone.

    Builders list requests smallest first; the pass sends them in a seeded
    shuffle, so each size is sampled across the whole pass rather than in
    one burst.
    """
    rng = random.Random(f"{name}:{seed}")
    reqs = BUILDERS[name](rng, workdir, tiny)
    order = [r for r in reqs if not r.once]
    rng.shuffle(order)
    return Workload(name, order, warmup=reqs[0], once=[r for r in reqs if r.once])
