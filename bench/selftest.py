"""Self-test of the benchmark, in tiny-size mode (about a minute).

    python3 bench/selftest.py

Checks that
- every workload, run with `--tiny`, prints a last line with exactly the
  keys `correct`, `attempted`, `failed` and `metrics`, and emits every metric
  BENCHMARK.json declares (end-to-end with `--trace 0`, per-layer with
  `--trace 1`), with the declared unit;
- each oracle accepts a right answer and rejects a corrupted one: I shifted
  by 1e-6, a threshold product off by 1e-5, a flipped LP verdict and a Monte
  Carlo maximum above 1;
- the deadline aborts a request and reports the deadline as its latency;
- run.py fails, without printing a result, in a directory holding only
  BENCHMARK.json and the benchmark's own files.
Exit status 0 when every check passes.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

FAILED = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILED.append(what)


def _run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metric_names(spec: dict) -> None:
    workloads = [w["name"] for w in spec["workloads"]]
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        units = {m["name"]: m["unit"] for m in declared}
        for name in workloads:
            res = _run_bench(ROOT, "--workload", name, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--tiny")
            what = f"{name} --trace {trace}"
            if res.returncode != 0:
                expect(False, f"{what} exited {res.returncode}: {res.stderr[-500:]}")
                continue
            last = json.loads(res.stdout.strip().splitlines()[-1])
            expect(set(last) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result keys {sorted(last)}")
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            expect(got == units, f"{what}: emits exactly the declared metrics and units"
                   + ("" if got == units else f" (missing {sorted(set(units) - set(got))}, "
                                              f"extra {sorted(set(got) - set(units))})"))
            expect(all(isinstance(v["value"], (int, float)) for v in last["metrics"].values()),
                   f"{what}: every value is a number")
            expect(last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1,
                   f"{what}: correct, nothing failed, attempted={last['attempted']}")


def _first(wl, prefix):
    return next(r for r in wl.once + wl.requests if r.label.startswith(prefix))


def check_oracles() -> None:
    import workloads

    workdir = BENCH_DIR / "out" / "selftest-oracles"
    try:
        def answered(wl_name, prefix):
            wl = workloads.build(wl_name, 7, str(workdir), tiny=True)
            req = _first(wl, prefix)
            outcome = run.execute(req)
            expect(not run.check(req, outcome), f"{req.label}: right answer accepted")
            return req, outcome

        def rejected(req, outcome, edit, what):
            bad = copy.copy(outcome)
            doc = json.loads(outcome.stdout)
            edit(doc)
            bad.stdout = json.dumps(doc)
            expect(bool(run.check(req, bad)), f"{req.label}: rejects {what}")

        workdir.mkdir(parents=True, exist_ok=True)
        req, out = answered("simulate", "simulate p22 n=3 json")

        def shift_i(doc):
            doc["report"]["I"] += 1e-6
        rejected(req, out, shift_i, "I shifted by 1e-6")

        big = _first(workloads.build("simulate", 7, str(workdir), tiny=True), "library")
        outcome = run.execute(big)
        b, report = outcome.value
        expect(not run.check(big, outcome), f"{big.label}: right answer accepted")
        shifted = copy.copy(outcome)
        shifted.value = (b, dataclasses.replace(report, I=report.I + 1e-6))
        expect(bool(run.check(big, shifted)), f"{big.label}: rejects I shifted by 1e-6")

        req, out = answered("threshold", "threshold p22")

        def shift_product(doc):
            doc["result"]["product"] += 1e-5
        rejected(req, out, shift_product, "threshold product off by 1e-5")

        for prefix in ("lp p22 n=2 quantum json", "lp p22 n=2 chain-pr"):
            req, out = answered("lp", prefix)

            def flip(doc):
                doc["result"]["feasible"] = not doc["result"]["feasible"]
            rejected(req, out, flip, "a flipped LP verdict")

        for prefix in ("montecarlo p22 n=2 K=2", "montecarlo p22 n=2 mixture"):
            req, out = answered("montecarlo", prefix)

            def above_one(doc):
                key = "max_local_value" if "max_local_value" in doc["result"] else "max_nlocal_value"
                doc["result"][key] = 1.0 + 1e-6
            rejected(req, out, above_one, "a Monte Carlo maximum above 1")

        slow = _first(workloads.build("lp", 7, str(workdir)), "lp p14 n=3 quantum json")
        slow.deadline_s = 0.005
        outcome = run.execute(slow)
        expect(outcome.status == "deadline" and outcome.latency_s == 0.005,
               f"deadline aborts a request (status {outcome.status!r}, "
               f"latency {outcome.latency_s})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory() -> None:
    scratch = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH_DIR / "out"))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, scratch / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        res = _run_bench(scratch, "--workload", "simulate", "--seed", "1", "--seconds", "1",
                         "--trace", "0")
        printed_result = any(line.startswith("{") for line in res.stdout.splitlines())
        expect(res.returncode != 0 and not printed_result,
               f"bare directory: exit {res.returncode}, no result printed")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    run._import_netlocal()
    check_oracles()
    check_bare_directory()
    check_metric_names(spec)
    print(f"\n{len(FAILED)} check(s) failed" if FAILED else "\nall checks passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
