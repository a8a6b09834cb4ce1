"""Run workloads over several seeds and print every end-to-end metric.

    python3 bench/report.py                          # every workload, seed 1
    python3 bench/report.py --seeds 1-10 --label baseline
    python3 bench/report.py --workloads lp,lp_n4 --trace 1

Each run is a fresh `bench/run.py` process.  For every workload the table
shows each metric by name and unit per seed, then the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median
next to the bound BENCHMARK.json fixes.  `error_rate` and `trials_per_s`
come from the run records.  With `--label`, the aggregate is written to
`bench/results/BENCH_<label>.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def run_one(workload, seed, seconds, trace, out_path) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out_path)]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if res.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr[-2000:]}")
    last = json.loads(res.stdout.strip().splitlines()[-1])
    record = json.loads(out_path.read_text(encoding="utf-8"))
    return {"seed": seed, "elapsed_s": elapsed, "result": last, "record": record}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(
        [w["name"] for w in spec["workloads"]] + ["lp_n4"]))
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default=None)
    args = parser.parse_args(argv)

    seeds = _seeds(args.seeds)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    extras = ("error_rate", "trials_per_s")
    out_dir = BENCH_DIR / "out" / f"report-{args.label or 'adhoc'}"
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            run = run_one(workload, seed, args.seconds, args.trace,
                          out_dir / f"{workload}-seed{seed}-trace{args.trace}.json")
            runs.append(run)
            res, rec = run["result"], run["record"]
            shown = ", ".join(f"{k}={v['value']:.6g} {v['unit']}"
                              for k, v in res["metrics"].items() if not args.trace)
            print(f"{workload} seed={seed} run={run['elapsed_s']:.1f}s correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"error_rate={rec['error_rate']:.4g} trials_per_s={rec['trials_per_s']} "
                  f"tail=p{rec['tail_percentile']:.1f} of {rec['requests_per_pass']}/pass {shown}",
                  flush=True)
        names = list(runs[0]["result"]["metrics"])
        table = {}
        print(f"\n{workload}: {len(runs)} runs, seeds {args.seeds}")
        for name in names + list(extras):
            if name in extras:
                values = [r["record"][name] for r in runs]
                unit = "1/s" if name == "trials_per_s" else "share"
                if any(v is None for v in values):
                    continue
            else:
                values = [r["result"]["metrics"][name]["value"] for r in runs]
                unit = runs[0]["result"]["metrics"][name]["unit"]
            stats = spread(values)
            bound = bounds.get(name)
            table[name] = {"unit": unit, "bound": bound, "values": values, **stats}
            flag = ""
            if bound is not None and stats["spread"] is not None:
                flag = "ok" if stats["spread"] <= bound / 3 else (
                    "within bound" if stats["spread"] <= bound else "TOO WIDE")
            sp = "n/a" if stats["spread"] is None else f"{stats['spread']:.4f}"
            print(f"  {name:<44} {unit:<6} median={stats['median']:<12.6g} "
                  f"q1={stats['q1']:<12.6g} q3={stats['q3']:<12.6g} spread={sp} "
                  f"bound={bound} {flag}")
        print()
        summary[workload] = {
            "runs": [{"seed": r["seed"], "elapsed_s": r["elapsed_s"],
                      "correct": r["result"]["correct"], "attempted": r["result"]["attempted"],
                      "failed": r["result"]["failed"], "tail_percentile": r["record"]["tail_percentile"],
                      "failures": r["record"]["failures"][:5]} for r in runs],
            "metrics": table,
        }
    if args.label:
        rec = json.loads((out_dir / f"{args.workloads.split(',')[0]}-seed{seeds[0]}"
                          f"-trace{args.trace}.json").read_text(encoding="utf-8"))
        doc = {
            "label": args.label,
            "git_commit": rec["git_commit"],
            "machine": rec["machine"],
            "command": "python3 bench/report.py " + " ".join(
                argv if argv is not None else sys.argv[1:]),
            "run_seconds": args.seconds,
            "trace": args.trace,
            "seeds": seeds,
            "workloads": summary,
        }
        path = BENCH_DIR / "results" / f"BENCH_{args.label}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
