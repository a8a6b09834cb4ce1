"""Closed-loop benchmark of the netlocal command line, one workload per run.

    python3 bench/run.py --workload simulate --seed 1 --seconds 27 --trace 0

One client, in this process, sends each request only after the previous
one returned.  A pass is the workload's fixed, seeded request list; the run
repeats whole passes, at least three, while another fits in `--seconds`.
Each request's latency is its median over the passes, so a stall of the
shared machine during one pass does not move the result.  Answers are
checked by oracles between requests, outside the timed region.

The last stdout line is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer ones
with `--trace 1`).  A fuller record, with machine facts, seed, commit and
the command that reproduces the run, is written to `bench/out/`.

Set-up time is measured in fresh child processes (`--setup-probe`), from
process start to the moment the first timed request would be sent; the
median of five, two before and three after the passes, is reported.

BLAS runs one thread unless `OPENBLAS_NUM_THREADS` / `OMP_NUM_THREADS` say
otherwise: the client is single and the machine small, so a second BLAS
thread would measure the scheduler rather than the program.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# before numpy is imported, here or in the set-up probes this process spawns
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("simulate", "threshold", "lp", "montecarlo", "lp_n4")
SETUP_PROBES = 5
MIN_PASSES = 3            # passes of an untraced run, whatever `--seconds` says
TAIL_BEYOND = 10          # requests per pass beyond the tail percentile
READY = "setup-ready"


def _import_netlocal():
    """Import the package from this checkout's `src/`, and nowhere else."""
    if not (SRC / "netlocal" / "__init__.py").is_file():
        raise SystemExit(f"error: no netlocal sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import netlocal
    if Path(netlocal.__file__).resolve().parent != SRC / "netlocal":
        raise SystemExit(f"error: imported netlocal from {netlocal.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# one request

class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def execute(req, tracer=None):
    """Send one request and wait for it; returns an Outcome (never raises)."""
    from netlocal import cli
    from workloads import Outcome

    out, err = io.StringIO(), io.StringIO()
    value, status = None, "ok"
    t0 = time.perf_counter()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, req.deadline_s)
            t0 = time.perf_counter()
            try:
                if req.argv is not None:
                    code = cli.main(req.argv)
                    if code != 0:
                        status = f"exit {code}"
                else:
                    value = req.call()
            except SystemExit as exc:   # argparse usage errors
                status = f"exit {exc.code}"
            latency = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        signal.setitimer(signal.ITIMER_REAL, 0)
        status, latency = "deadline", req.deadline_s
        if tracer is not None:
            tracer.reset_open_spans()
            tracer.counts["analysis.lp.deadline_misses"] += 1
    except Exception as exc:  # the client records any failure and goes on
        signal.setitimer(signal.ITIMER_REAL, 0)
        status, latency = f"raised {type(exc).__name__}: {exc}", time.perf_counter() - t0
        if tracer is not None:
            tracer.reset_open_spans()
    finally:
        signal.signal(signal.SIGALRM, previous)
    return Outcome(status, latency, out.getvalue(), err.getvalue(), value)


def check(req, outcome, tracer=None) -> list:
    """Run the request's oracle with tracing paused; an oracle crash is a failure."""
    if tracer is not None:
        tracer.paused = True
    try:
        return req.check(req, outcome)
    except Exception as exc:  # a malformed answer must not stop the run
        return [f"oracle raised {type(exc).__name__}: {exc}"]
    finally:
        if tracer is not None:
            tracer.paused = False


# ---------------------------------------------------------------------------
# set-up

def setup(name: str, seed: int, workdir: Path, tiny: bool):
    """Inputs, set-up file writes and one warm-up request (the smallest).

    The warm-up's answer is not checked here: the same request is in every
    pass, where a wrong answer is counted.
    """
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(name, seed, str(workdir), tiny)
    execute(wl.warmup)
    return wl


def measure_setup(args, probes: int) -> list:
    """Set-up seconds of `probes` fresh processes, each timed from spawn to ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=120)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != READY or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line.strip()!r})")
        samples.append(elapsed)
    return samples


# ---------------------------------------------------------------------------
# the timed passes

def run_pass(wl, tracer, with_once: bool) -> dict:
    """Send one pass (and, if asked, the once-per-run requests first).

    `records` follow `wl.requests`, `once` follows `wl.once`; each record
    is (request, latency, status, problems).  With a tracer the pass is
    traced.
    """
    if tracer is not None:
        tracer.install()
    records = []
    try:
        for req in (wl.once if with_once else []) + wl.requests:
            outcome = execute(req, tracer)
            problems = check(req, outcome, tracer)
            if tracer is not None and req.argv is not None:
                tracer.counts["cli.payload_bytes"] += len(outcome.stdout)
                if req.argv[0] == "threshold" and not problems:
                    doc = json.loads(outcome.stdout)
                    tracer.counts["analysis.threshold.steps"] += doc["result"]["iterations"]
            records.append((req, outcome.latency_s, outcome.status, problems))
            del outcome
    finally:
        if tracer is not None:
            tracer.uninstall()
    once = records[:len(records) - len(wl.requests)]
    records = records[len(once):]
    return {"traced": tracer is not None, "records": records, "once": once,
            "wall_s": sum(r[1] for r in once + records)}


def run_passes(wl, seconds: float, tracer):
    """The run's passes; the once-per-run requests open the first one.

    Without a tracer, whole passes repeat while another one, as long as the
    last, fits in `seconds` of clock time (requests and oracles, not
    counting the once-per-run requests).  At least MIN_PASSES run.  With a
    tracer, one untraced pass and one traced pass run, each opened by the
    once-per-run requests, so their walls compare.
    """
    if tracer is not None:
        return [run_pass(wl, None, True), run_pass(wl, tracer, True)]
    passes = []
    spent = last = 0.0
    while len(passes) < MIN_PASSES or spent + last <= seconds:
        t_pass = time.perf_counter()
        passes.append(run_pass(wl, None, not passes))
        last = time.perf_counter() - t_pass - sum(r[1] for r in passes[-1]["once"])
        spent += last
    return passes


def tail_rank(per_pass: int) -> tuple[float, int]:
    """(percentile, requests per pass beyond it) for a pass of `per_pass`."""
    beyond = TAIL_BEYOND if per_pass > TAIL_BEYOND else 0
    return 100.0 * (per_pass - beyond) / per_pass, beyond


def nearest_rank(values, percentile: float) -> float:
    ordered = sorted(values)
    k = max(1, math.ceil(round(percentile / 100.0 * len(ordered), 9)))
    return ordered[k - 1]


def request_medians(passes) -> list:
    """Each request's median latency over the given passes, in pass order."""
    return [statistics.median(p["records"][i][1] for p in passes)
            for i in range(len(passes[0]["records"]))]


def end_to_end(passes, setup_samples, per_pass: int) -> tuple[dict, dict]:
    """(metrics, record-only facts) from the untraced passes."""
    timed = [p for p in passes if not p["traced"]]
    latencies = request_medians(timed) + [r[1] for r in timed[0]["once"]]
    percentile, beyond = tail_rank(per_pass)
    wall = sum(latencies)
    trials = sum(r[0].trials for r in timed[0]["once"] + timed[0]["records"])
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (wall, "s"),
        "req_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "req_tail_ms": (1000.0 * nearest_rank(latencies, percentile), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    facts = {
        "tail_percentile": percentile,
        "tail_beyond_per_pass": beyond,
        "requests_per_pass": per_pass,
        "passes_timed": len(timed),
        "trials_per_s": trials / wall if trials else None,
    }
    return metrics, facts


def per_layer(passes, tracer) -> dict:
    """Spans and counts of the traced pass, which the tracer saw alone."""
    from tracing import COUNTERS, SPANS, span_name

    (traced,) = [p for p in passes if p["traced"]]
    (untraced,) = [p for p in passes if not p["traced"]]
    out = {}
    total_self = 0.0
    for module, attr in SPANS:
        name = span_name(module, attr)
        out[f"{name}.calls"] = (tracer.calls[name], "count")
        out[f"{name}.self_s"] = (tracer.self_s[name], "s")
        total_self += tracer.self_s[name]
    for name, unit in COUNTERS:
        out[name] = (tracer.counts[name], unit)
    out["trace.wall_s"] = (traced["wall_s"], "s")
    out["trace.residual_s"] = (traced["wall_s"] - total_self, "s")
    out["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
    return out


# ---------------------------------------------------------------------------
# run record

def machine_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"


def _metric_doc(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="clock seconds of whole passes to aim for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the self-test only")
    parser.add_argument("--out", default=None, help="run record path (default bench/out/)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_netlocal()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, workdir, args.tiny)
            print(READY, flush=True)
            return 0
        # probes before the passes and after them, so that the median does
        # not hang on the machine's speed at one moment
        setup_samples = measure_setup(args, SETUP_PROBES // 2)
        wl = setup(args.workload, args.seed, workdir, args.tiny)
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        passes = run_passes(wl, args.seconds, tracer)
        setup_samples += measure_setup(args, SETUP_PROBES - SETUP_PROBES // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [{"pass": i, "request": req.label, "status": status, "problems": problems}
                for i, p in enumerate(passes)
                for req, _, status, problems in p["once"] + p["records"]
                if status != "ok" or problems]
    attempted = sum(len(p["once"]) + len(p["records"]) for p in passes)
    e2e, facts = end_to_end(passes, setup_samples, len(wl.once) + len(wl.requests))
    metrics = per_layer(passes, tracer) if tracer is not None else e2e
    wrong_answers = sum(1 for f in failures if f["problems"] and f["status"] == "ok")

    command = (f"python3 bench/run.py --workload {args.workload} --seed {args.seed} "
               f"--seconds {args.seconds:g} --trace {args.trace}" + (" --tiny" if args.tiny else ""))
    untraced = [p for p in passes if not p["traced"]]
    by_request = [[req.label, median] for (req, *_), median
                  in zip(untraced[0]["records"], request_medians(untraced))]
    by_request += [[req.label, latency] for req, latency, *_ in untraced[0]["once"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "command": command,
        "git_commit": git_commit(),
        "machine": machine_facts(),
        "shape": "closed loop, one client in one process, one request at a time",
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                    "once_latencies_s": [r[1] for r in p["once"]],
                    "latencies_s": [r[1] for r in p["records"]]} for p in passes],
        "setup_samples_s": setup_samples,
        "end_to_end": _metric_doc(e2e),
        "error_rate": len(failures) / attempted,
        **facts,
        "per_layer": _metric_doc(metrics) if tracer is not None else None,
        "median_latency_s_by_request": by_request,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
    }
    out_path = Path(args.out) if args.out else (
        OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"run record: {out_path}")
    print(json.dumps({"correct": wrong_answers == 0, "attempted": attempted,
                      "failed": len(failures), "metrics": _metric_doc(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
