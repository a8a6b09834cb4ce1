"""Command-line front end: every analysis as a subcommand.

Each subcommand prints one JSON document to stdout carrying a schema version
and the fully resolved configuration, so a run is reproducible from the
printed record alone.  Results with a natural tabular shape (behavior tables,
plot data) can additionally be written to files in JSON or CSV.

Exit codes: 0 success; 2 usage or flag validation; 3 a numerical guard or
domain error raised during computation (chain too long for the naive path,
no threshold crossing, malformed behavior file, ...).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .analysis import (
    LP_DEFAULT_TOL,
    chain_pr_behavior,
    check_lp_size,
    decomposition_check,
    figure4_report,
    lp_local_membership,
    mc_local_mixture_sweep,
    mc_nlocal_sweep,
    visibility_threshold,
)
from .behavior import (
    Behavior,
    behavior_header,
    bound_values,
    correlator_report,
    load_behavior_csv,
    load_behavior_json,
    save_behavior_csv,
    save_behavior_json,
    table_cells,
    write_json_cells,
)
from .errors import LP_FILE_BYTE_GUARD, OUTPUT_CELL_GUARD, NetlocalError, check_size
from .evaluator import evaluate_chain
from .hvmodels import model_IJ, model_to_json, tightness_model
from .network import KIND_P14, KIND_P22, standard_scenario

CLI_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# flag parsing helpers

def _flag(convert, ok, message: str):
    """An argparse type: convert (int or float) applied to the text, and a
    usage error unless ok(value), with message.format(value) as its text."""
    noun = "an integer" if convert is int else "a number"

    def parse(text: str):
        try:
            v = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")
        if not ok(v):
            raise argparse.ArgumentTypeError(message.format(v))
        return v

    return parse


_chain_length = _flag(int, lambda n: n >= 2, "a chain needs n >= 2 sources, got {}")
_positive_int = _flag(int, lambda v: v >= 1, "expected a positive integer, got {}")
_nonnegative_int = _flag(int, lambda v: v >= 0, "expected a non-negative integer, got {}")
_unit_float = _flag(float, lambda v: 0.0 <= v <= 1.0, "expected a value in [0, 1], got {}")
_positive_float = _flag(float, lambda v: 0.0 < v < math.inf,
                        "expected a finite positive number, got {}")
_grid_step = _flag(float, lambda v: 0.0 < v <= 0.5, "expected a grid step in (0, 0.5], got {}")


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}")


def _check_alphas(parser, alphas, n):
    """Shape/range validation for a visibility list; usage error on failure."""
    if alphas is None:
        return None
    if len(alphas) != n:
        parser.error(f"--alphas needs exactly {n} entries, got {len(alphas)}")
    if any(not 0.0 <= a <= 1.0 for a in alphas):
        parser.error("--alphas entries must lie in [0, 1]")
    return [float(a) for a in alphas]


def _payload(command: str, config: dict) -> dict:
    return {"schema_version": CLI_SCHEMA_VERSION, "command": command,
            "config": config}


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args) -> dict:
    alphas = _check_alphas(args.parser, args.alphas, args.n)
    if args.format == "csv" and args.out is None:
        args.parser.error("--format csv requires --out (stdout stays JSON)")
    check_size(table_cells(args.n), OUTPUT_CELL_GUARD, f"simulate --n {args.n}: table cells")
    b = evaluate_chain(standard_scenario(args.n, args.kind, alphas))
    report = correlator_report(b)
    if args.out is not None:
        if args.format == "csv":
            save_behavior_csv(b, args.out)
        else:
            save_behavior_json(b, args.out)
    doc = _payload("simulate", {
        "n": args.n, "kind": args.kind,
        "alphas": alphas if alphas is not None else [1.0] * args.n,
        "out": args.out, "format": args.format,
    })
    doc["report"] = report.to_json()
    if args.out is None:
        doc["behavior"] = b  # main streams its table
    else:
        doc["behavior_path"] = args.out
    return doc


def cmd_tightness(args) -> dict:
    model = tightness_model(args.kind, args.n, args.r)
    report = bound_values(*model_IJ(model))
    if args.model_out is not None:
        with open(args.model_out, "w", encoding="utf-8") as fh:
            json.dump(model_to_json(model), fh, indent=2)
            fh.write("\n")
    doc = _payload("tightness", {
        "n": args.n, "kind": args.kind, "r": args.r,
        "model_out": args.model_out,
    })
    doc["report"] = report.to_json()
    doc["expected"] = {"I": args.r ** 2, "J": (1.0 - args.r) ** 2}
    doc["model_note"] = model.note
    return doc


def cmd_montecarlo(args) -> dict:
    if args.mixture:
        result = mc_local_mixture_sweep(args.kind, args.n, args.trials, args.seed)
    else:
        result = mc_nlocal_sweep(args.kind, args.n, args.cardinality,
                                 args.trials, args.seed, workers=args.workers)
    doc = _payload("montecarlo", {
        "n": args.n, "kind": args.kind, "trials": args.trials,
        "seed": args.seed, "cardinality": args.cardinality,
        "mixture": args.mixture, "workers": args.workers,
    })
    doc["result"] = result
    return doc


def cmd_lp(args) -> dict:
    if args.behavior is not None and not args.behavior.endswith(".csv"):
        check_size(os.path.getsize(args.behavior), LP_FILE_BYTE_GUARD,
                   f"lp --behavior {args.behavior}: file bytes")
        b = load_behavior_json(args.behavior)
    else:
        # --kind and --n fix the scenario: refuse before it is built or read
        check_lp_size(args.kind, args.n)
        if args.behavior is not None:
            b = load_behavior_csv(args.behavior, args.kind, args.n)
        elif args.source == "chain-pr":
            b = chain_pr_behavior(args.kind, args.n)
        else:
            b = evaluate_chain(standard_scenario(args.n, args.kind))
    res = lp_local_membership(b, tol=args.tol)
    doc = _payload("lp", {
        "n": b.n, "kind": b.kind, "source": args.source,
        "behavior": args.behavior, "tol": args.tol,
    })
    doc["result"] = res.to_json()
    return doc


def cmd_threshold(args) -> dict:
    profile = _check_alphas(args.parser, args.alphas, args.n)
    res = visibility_threshold(args.kind, args.n, profile=profile,
                               bound=args.bound)
    doc = _payload("threshold", {
        "n": args.n, "kind": args.kind, "alphas": profile,
        "bound": args.bound,
    })
    doc["result"] = res.to_json()
    return doc


def _figure4_csv(report: dict, fh) -> None:
    """Long-format plot data: series,param,I,J (param is r or t, blank for
    the three isolated points)."""
    fh.write("series,param,I,J\n")
    q = report["quantum_point"]
    fh.write(f"quantum,,{q['I']!r},{q['J']!r}\n")
    fh.write(f"pi,,{report['pi_point']['I']!r},{report['pi_point']['J']!r}\n")
    fh.write(f"pj,,{report['pj_point']['I']!r},{report['pj_point']['J']!r}\n")
    for row in report["tightness_curve"]:
        fh.write(f"tightness,{row['r']!r},{row['I']!r},{row['J']!r}\n")
    for row in report["nlocal_boundary"]:
        fh.write(f"nlocal_boundary,{row['t']!r},{row['I']!r},{row['J']!r}\n")
    for row in report["local_boundary"]:
        fh.write(f"local_boundary,{row['t']!r},{row['I']!r},{row['J']!r}\n")


def cmd_figure4(args):
    report = figure4_report(args.kind, args.n, args.grid_step)
    if args.format == "csv" and args.out is None:
        _figure4_csv(report, sys.stdout)
        return None
    doc = _payload("figure4", {
        "n": args.n, "kind": args.kind, "grid_step": args.grid_step,
        "out": args.out, "format": args.format,
    })
    doc["result"] = report
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            if args.format == "csv":
                _figure4_csv(report, fh)
            else:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
    return doc


def cmd_decomposition(args) -> dict:
    res = decomposition_check(args.kind, args.n)
    doc = _payload("decomposition", {"n": args.n, "kind": args.kind})
    doc["result"] = res.to_json()
    return doc


# ---------------------------------------------------------------------------
# output

_LIST_MARK = "list items go here"
_ITEM_SEP = ",\n      "  # a list two objects deep: its items are indented by six spaces


def _print_payload(payload: dict, fh) -> None:
    """print(json.dumps(payload, indent=2), file=fh), with its one long list
    spliced into the text: a Behavior under "behavior" is written as its
    behavior_to_json document with the table streamed run by run, never
    built as a list of floats, and the lp weights as one run of float texts
    from the C encoder, not item by item by the pure-Python indent one."""
    b, result = payload.get("behavior"), payload.get("result")
    if isinstance(b, Behavior):
        doc = {**payload, "behavior": {**behavior_header(b), "table": _LIST_MARK}}
    elif payload["command"] == "lp" and result["weights"]:
        doc = {**payload, "result": {**result, "weights": _LIST_MARK}}
    else:
        print(json.dumps(payload, indent=2), file=fh)
        return
    head, _, tail = json.dumps(doc, indent=2).rpartition(json.dumps(_LIST_MARK))
    fh.write(head + "[\n      ")
    if isinstance(b, Behavior):
        write_json_cells(b, fh, _ITEM_SEP)
    else:
        # the C encoder's item texts are the indent encoder's; no float holds ", "
        fh.write(json.dumps(result["weights"])[1:-1].replace(", ", _ITEM_SEP))
    fh.write("\n    ]" + tail + "\n")


# ---------------------------------------------------------------------------
# parser assembly

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The netlocal argument parser, built once per process: parse_args
    leaves no state in it, and building it costs about 1.5 ms."""
    parser = argparse.ArgumentParser(
        prog="netlocal",
        description="Chain-network correlations: simulation, bounds, models, LP.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--n", type=_chain_length, default=2,
                       help="number of sources (>= 2); the chain has n+1 parties")
        p.add_argument("--kind", choices=(KIND_P22, KIND_P14), default=KIND_P22,
                       help="intermediate measurement style")
        p.set_defaults(parser=p)

    p = sub.add_parser("simulate", help="exact quantum behavior and correlator report")
    common(p)
    p.add_argument("--alphas", type=_float_list, default=None,
                   help="comma-separated source visibilities, e.g. 0.9,0.9,0.8")
    p.add_argument("--out", default=None, help="write the behavior table here")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="behavior file format (csv requires --out)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tightness", help="explicit model saturating the nonlinear bound")
    common(p)
    p.add_argument("--r", type=_unit_float, default=0.5,
                   help="mixing parameter in [0, 1]; gives I=r^2, J=(1-r)^2")
    p.add_argument("--model-out", default=None, help="write the model JSON here")
    p.set_defaults(func=cmd_tightness)

    p = sub.add_parser("montecarlo", help="random-model sweeps against the bounds")
    common(p)
    p.add_argument("--trials", type=_positive_int, default=10_000,
                   help="random models per sweep")
    p.add_argument("--seed", type=_nonnegative_int, default=0,
                   help="base seed; trial t uses the stream (seed, t)")
    p.add_argument("--cardinality", type=_positive_int, default=2,
                   help="hidden-variable values per source")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="process count (at most one per job and per core)")
    p.add_argument("--mixture", action="store_true",
                   help="sweep random local mixtures against |I|+|J| instead")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("lp", help="local-polytope membership by linear program")
    common(p)
    p.add_argument("--source", choices=("quantum", "chain-pr"), default="quantum",
                   help="built-in behavior to test (ignored with --behavior)")
    p.add_argument("--behavior", default=None,
                   help="behavior file to test instead (.json self-describing; "
                        ".csv uses --kind/--n)")
    p.add_argument("--tol", type=_positive_float, default=LP_DEFAULT_TOL,
                   help="feasibility residual tolerance")
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("threshold", help="visibility where a bound value crosses 1")
    common(p)
    p.add_argument("--alphas", type=_float_list, default=None,
                   help="fixed profile; source 1 is scaled (default: all equal)")
    p.add_argument("--bound", choices=("nlocal", "local"), default="nlocal",
                   help="which inequality the crossing refers to")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("figure4", help="plot-ready (I, J) plane data")
    common(p)
    p.add_argument("--grid-step", type=_grid_step, default=0.05,
                   help="spacing of the r and boundary grids")
    p.add_argument("--out", default=None, help="also write the output here")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv emits long-format series rows")
    p.set_defaults(func=cmd_figure4)

    p = sub.add_parser("decomposition", help="exact even-mixture check of the "
                                             "analytic quantum point")
    common(p)
    p.set_defaults(func=cmd_decomposition)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
    except NetlocalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if payload is not None:
        _print_payload(payload, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
