"""CLI contract: exit codes, payload schema, file round trips, determinism."""

import contextlib
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netlocal.analysis import chain_pr_behavior
from netlocal.behavior import (Behavior, behavior_to_json, compute_IJ, load_behavior_csv,
                               load_behavior_json, mix_behaviors, save_behavior_csv,
                               save_behavior_json, uniform_behavior)
from netlocal.cli import _print_payload, build_parser, main
from netlocal.errors import LP_FILE_BYTE_GUARD, SizeGuardError
from netlocal.evaluator import evaluate_chain
from netlocal.network import KIND_P14, KIND_P22, standard_scenario


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv)
    assert code == 0, out
    return json.loads(out)


def test_simulate_default_payload(capsys):
    doc = _run_json(capsys, ["simulate", "--n", "2", "--kind", "p14"])
    assert doc["schema_version"] == 1
    assert doc["command"] == "simulate"
    assert doc["config"]["alphas"] == [1.0, 1.0]
    report = doc["report"]
    assert abs(report["abs_I"] - 0.5) < 1e-9
    assert abs(report["abs_J"] - 0.5) < 1e-9
    assert abs(report["nlocal_value"] - math.sqrt(2.0)) < 1e-9
    assert report["violates_nlocal"] and not report["violates_local"]
    # no --out: the behavior table is inlined
    assert doc["behavior"]["kind"] == "p14" and doc["behavior"]["n"] == 2


def test_simulate_scaled_visibilities(capsys):
    doc = _run_json(capsys, ["simulate", "--n", "3", "--kind", "p22",
                             "--alphas", "0.9,0.9,0.8"])
    assert abs(doc["report"]["nlocal_value"] - 1.13842) < 1e-4


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["simulate", "--n", "1"],
        ["simulate", "--n", "2", "--kind", "p13"],
        ["simulate", "--n", "2", "--alphas", "1,1,1"],
        ["simulate", "--n", "2", "--alphas", "0.5,1.5"],
        ["simulate", "--n", "2", "--format", "csv"],  # csv needs --out
        ["tightness", "--r", "1.5"],
        ["montecarlo", "--trials", "0"],
        ["montecarlo", "--seed", "-1"],
        ["montecarlo", "--mixture", "--seed", "-1"],
        ["lp", "--tol", "-1"],
        ["lp", "--tol", "0"],
        ["figure4", "--grid-step", "0"],
        ["figure4", "--grid-step", "0.7"],
        ["nosuchcommand"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_guard_errors_exit_3(capsys, monkeypatch, tmp_path):
    import netlocal.analysis
    import netlocal.cli
    import netlocal.hvmodels
    n2_csv = tmp_path / "n2.csv"
    _run_json(capsys, ["simulate", "--n", "2", "--format", "csv", "--out", str(n2_csv)])
    future_json = tmp_path / "future.json"
    future_json.write_text(json.dumps({"schema_version": 99, "kind": "p22", "n": 2,
                                       "table": [0.0] * 64}))
    nan_lines = n2_csv.read_text().splitlines()
    nan_lines[1] = nan_lines[1].rsplit(",", 1)[0] + ",nan"
    good = {"schema_version": 1, "kind": "p22", "n": 2, "table": [1.0 / 8] * 64}
    malformed = {
        "short.json": json.dumps({**good, "table": [1.0 / 8] * 63}),
        "no_kind.json": json.dumps({k: v for k, v in good.items() if k != "kind"}),
        "n_x.json": json.dumps({**good, "n": "x"}),
        "n_huge.json": json.dumps({**good, "n": 10 ** 6}),
        "text_table.json": json.dumps({**good, "table": ["a"] * 64}),
        "list.json": json.dumps([good]),
        "invalid.json": "{not json",
        "empty.csv": "",
        "nan.csv": "\n".join(nan_lines) + "\n",
    }
    for name, text in malformed.items():
        (tmp_path / name).write_text(text)
    # an LP past the size guard is refused before its behavior or any
    # strategy table is built; so are oversized tables, models and mixtures
    monkeypatch.setattr(netlocal.analysis, "party_strategy_table", _refuse)
    monkeypatch.setattr(netlocal.hvmodels, "party_strategy_table", _refuse)
    monkeypatch.setattr(netlocal.hvmodels, "_trial_words", _refuse)
    monkeypatch.setattr(netlocal.hvmodels, "_trial_draws", _refuse)
    monkeypatch.setattr(netlocal.cli, "standard_scenario", _refuse)
    for argv in (
        ["decomposition", "--n", "12"],                     # three 4**13-cell tables
        ["decomposition", "--n", "12", "--kind", "p14"],
        ["simulate", "--n", "12"],                          # printed table size guard
        ["simulate", "--n", "12", "--out", str(tmp_path / "F"), "--format", "csv"],
        ["montecarlo", "--cardinality", "10000000", "--trials", "1"],  # response tables
        ["montecarlo", "--cardinality", "10000000", "--trials", "2", "--workers", "2"],
        ["montecarlo", "--mixture", "--n", "9", "--trials", "1"],  # strategy tuples
        ["montecarlo", "--mixture", "--n", "30", "--trials", "1"],
        ["threshold", "--n", "2", "--alphas", "0.6,0.6"],   # never crosses the bound
        ["lp", "--behavior", str(tmp_path / "missing.json")],
        ["lp", "--behavior", str(n2_csv), "--n", "3"],      # wrong shape for n = 3
        ["lp", "--behavior", str(future_json)],             # unsupported schema version
        ["lp", "--n", "5"],                                 # LP size guard
        ["lp", "--n", "8", "--kind", "p14"],
        ["lp", "--n", "8", "--source", "chain-pr"],
        ["lp", "--n", "40"],
        ["lp", "--n", "40", "--source", "chain-pr"],
        *(["lp", "--behavior", str(tmp_path / name)] for name in malformed),
    ):
        start = time.perf_counter()
        code, out = _run(capsys, argv)
        elapsed = time.perf_counter() - start
        assert code == 3 and out == "", argv
        assert elapsed < 1.0, (argv, elapsed)


def test_montecarlo_refuses_oversized_trial_budgets(capsys, monkeypatch):
    import netlocal.analysis
    import netlocal.hvmodels
    from netlocal.errors import SWEEP_CELL_GUARD
    guard = netlocal.analysis._check_sweep
    # admitted: criterion 4's 10**4 trials of its largest model (p22 n = 4,
    # K = 4: 240 cells) and mixture (n = 4: 1024 tuples), and the budget itself
    for cells in (240, 1024):
        guard(10_000, 0, 10_000 * cells, "models")
    guard(SWEEP_CELL_GUARD // 1024, 0, SWEEP_CELL_GUARD // 1024 * 1024, "models")
    with pytest.raises(SizeGuardError):
        guard(SWEEP_CELL_GUARD // 1024 + 1, 0, (SWEEP_CELL_GUARD // 1024 + 1) * 1024, "models")
    # refused before any draw, any strategy value or any worker
    for module, name in ((netlocal.analysis, "random_model_blocks"),
                         (netlocal.analysis, "random_mixture_blocks"),
                         (netlocal.analysis, "strategy_IJ"),
                         (netlocal.hvmodels, "_draw_blocks"),
                         (netlocal.hvmodels, "_trial_words"),
                         (netlocal.hvmodels, "_trial_draws"),
                         (netlocal.analysis.concurrent.futures, "ProcessPoolExecutor")):
        monkeypatch.setattr(module, name, _refuse)
    for argv in (
        ["montecarlo", "--trials", str(10 ** 9)],                          # 36 cells each
        ["montecarlo", "--trials", str(10 ** 9), "--workers", "2"],
        ["montecarlo", "--n", "40", "--cardinality", "4", "--trials", "40000"],  # 2688
        ["montecarlo", "--n", "4", "--cardinality", "4", "--trials", str(10 ** 6)],
        ["montecarlo", "--mixture", "--n", "4", "--trials", "100000"],     # 1024 tuples
        ["montecarlo", "--mixture", "--n", "8", "--kind", "p14", "--trials", "1000"],
        # 5004 cells, three trials and 1001 parties' fixed work per block
        ["montecarlo", "--n", "1000", "--cardinality", "1", "--trials", "5000"],
    ):
        code, out = _run(capsys, argv)
        assert code == 3 and out == "", argv
    # admitted, so they reach the draws: criterion 4's largest model and the
    # default 10**4 trials at n = 40, K = 4
    for argv in (["montecarlo", "--n", "4", "--cardinality", "4"],
                 ["montecarlo", "--n", "40", "--cardinality", "4"]):
        with pytest.raises(AssertionError, match="must not be taken"):
            main(argv)


# the extreme of every size flag, per command (an --n of 10**9 must be priced
# without forming 4**(n+1)); lp's "{big}" is a JSON file one byte over
# errors.LP_FILE_BYTE_GUARD
_SIZE_FLAG_EXTREMES = {
    "simulate": [["--n", "10000"], ["--n", "10000", "--kind", "p14"], ["--n", "1000000000"],
                 ["--n", "10000", "--out", "t.csv", "--format", "csv"]],
    "tightness": [["--n", "10000"], ["--n", "10000", "--kind", "p14", "--model-out", "m.json"]],
    "montecarlo": [["--n", "10000"], ["--n", "10000", "--mixture"],
                   ["--cardinality", "10000000", "--trials", "1"],
                   ["--trials", "1000000000"], ["--trials", "1000000000", "--mixture"],
                   ["--trials", "1000000000", "--workers", "2"],
                   ["--n", "5000", "--cardinality", "1", "--trials", "1000"],
                   ["--n", "7142", "--mixture", "--trials", "1"],
                   ["--n", "2", "--cardinality", "1", "--trials", "2143327"]],
    "lp": [["--n", "10000"], ["--n", "10000", "--source", "chain-pr"], ["--n", "3571"],
           ["--n", "1000000000"], ["--n", "5000", "--kind", "p14"],
           ["--n", "5000", "--kind", "p14", "--source", "chain-pr"], ["--n", "8", "--kind", "p14"],
           ["--n", "10000", "--kind", "p14", "--behavior", "x.csv"], ["--behavior", "{big}"]],
    "threshold": [["--n", "10000"], ["--n", "10000", "--bound", "local"]],
    "figure4": [["--n", "10000"], ["--grid-step", "5e-324"],
                ["--grid-step", "5e-324", "--format", "csv"]],
    "decomposition": [["--n", "10000"], ["--n", "10000", "--kind", "p14"], ["--n", "1000000000"]],
}


@pytest.mark.parametrize("command", sorted(_SIZE_FLAG_EXTREMES))
def test_size_flag_extremes_exit_3_with_a_short_message(capsys, monkeypatch, tmp_path, command):
    import netlocal.analysis
    import netlocal.cli
    import netlocal.hvmodels
    big = tmp_path / "big.json"
    big.write_bytes(b" " * (LP_FILE_BYTE_GUARD + 1))
    # every builder a command reaches after its size checks
    for module, names in (
        (netlocal.cli, ("standard_scenario", "chain_pr_behavior", "load_behavior_json",
                        "load_behavior_csv")),
        (netlocal.analysis, ("werner_IJ", "standard_scenario", "chain_IJ", "model_IJ",
                             "strategy_IJ", "random_model_blocks", "random_mixture_blocks")),
        (netlocal.hvmodels, ("NLocalModel", "_end_flip_response", "decomposition_model",
                             "_trial_words", "_trial_draws", "party_strategy_table")),
        (netlocal.analysis.concurrent.futures, ("ProcessPoolExecutor",)),
    ):
        for name in names:
            monkeypatch.setattr(module, name, _refuse)
    monkeypatch.chdir(tmp_path)
    for row in _SIZE_FLAG_EXTREMES[command]:
        argv = [command] + [str(big) if arg == "{big}" else arg for arg in row]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "", argv
        assert captured.err.count("\n") == 1 and len(captured.err) < 300, (argv, captured.err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]


def test_simulate_refuses_oversized_tables(capsys, monkeypatch):
    # the table guard must fire before the first contraction allocates
    monkeypatch.setattr(np, "tensordot", _refuse)
    for argv in (["simulate", "--n", "14"], ["simulate", "--n", "40", "--kind", "p14"]):
        start = time.perf_counter()
        code, out = _run(capsys, argv)
        elapsed = time.perf_counter() - start
        assert code == 3 and out == "", argv
        assert elapsed < 1.0, (argv, elapsed)
    # the library call keeps the chain kernel's own, larger guard
    for kind in ("p22", "p14"):
        with pytest.raises(SizeGuardError):
            evaluate_chain(standard_scenario(14, kind))


def test_threshold_and_figure4_refuse_long_chains(capsys, monkeypatch):
    import netlocal.analysis
    import netlocal.hvmodels
    for kind in ("p22", "p14"):
        # n = 40 still runs: the product at the threshold is 1/2
        doc = _run_json(capsys, ["threshold", "--n", "40", "--kind", kind])
        assert abs(doc["result"]["product"] - 0.5) < 1e-6
        assert _run_json(capsys, ["figure4", "--n", "40", "--kind", kind])["result"]["n"] == 40
    for name in ("werner_IJ", "standard_scenario", "chain_IJ", "model_IJ"):
        monkeypatch.setattr(netlocal.analysis, name, _refuse)
    monkeypatch.setattr(netlocal.hvmodels, "tightness_model", _refuse)
    too_long = str(netlocal.errors.CHAIN_LENGTH_GUARD + 1)
    for kind in ("p22", "p14"):
        for argv in (["threshold", "--n", too_long], ["threshold", "--n", "10000"],
                     ["threshold", "--n", "10000", "--bound", "local"],
                     ["figure4", "--n", too_long], ["figure4", "--n", "10000"],
                     ["figure4", "--n", too_long, "--format", "csv"]):
            code = main(argv + ["--kind", kind])
            captured = capsys.readouterr()
            assert code == 3 and captured.out == "", argv
            assert "sources, over" in captured.err


def test_tightness_and_figure4_grids_are_refused_before_any_model(capsys, monkeypatch):
    import netlocal.analysis
    import netlocal.cli
    import netlocal.hvmodels
    for name in ("standard_scenario", "chain_IJ", "model_IJ"):
        monkeypatch.setattr(netlocal.analysis, name, _refuse)
    monkeypatch.setattr(netlocal.cli, "model_IJ", _refuse)
    for name in ("NLocalModel", "_end_flip_response", "decomposition_model"):
        monkeypatch.setattr(netlocal.hvmodels, name, _refuse)
    too_long = str(netlocal.errors.CHAIN_LENGTH_GUARD + 1)
    for kind in ("p22", "p14"):
        for argv, message in ((["tightness", "--n", too_long], "sources, over"),
                              (["tightness", "--n", "10000", "--model-out", "m.json"],
                               "sources, over"),
                              (["figure4", "--grid-step", "1e-9"], "grid points, over"),
                              (["figure4", "--n", "1000", "--grid-step", "0.04"],
                               "grid points, over"),
                              (["figure4", "--grid-step", "1e-9", "--format", "csv"],
                               "grid points, over")):
            code = main(argv + ["--kind", kind])
            captured = capsys.readouterr()
            assert code == 3 and captured.out == "", argv
            assert message in captured.err


def test_threshold_with_nothing_moving_exits_3(capsys):
    # source 1 at visibility 0: the line the search walks is one point, I = J = 0
    for kind in ("p22", "p14"):
        code = main(["threshold", "--n", "3", "--kind", kind, "--alphas", "0,1,1"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "does not violate at full visibility" in captured.err


def test_lp_csv_is_refused_before_the_file_is_read(capsys, monkeypatch, tmp_path):
    import netlocal.cli
    monkeypatch.setattr(netlocal.cli, "load_behavior_csv", _refuse)
    for kind, n, what in (("p22", "5", "LP strategy matrix needs"),
                          ("p14", "8", "p14 LP's blocks need")):
        code = main(["lp", "--behavior", str(tmp_path / "x.csv"), "--n", n, "--kind", kind])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert what in captured.err


def test_malformed_behavior_csv_exits_3(capsys, tmp_path):
    path = tmp_path / "b.csv"
    _run_json(capsys, ["simulate", "--n", "2", "--format", "csv", "--out", str(path)])
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[1]]) + "\n")
    assert main(["lp", "--behavior", str(path), "--n", "2"]) == 3
    assert "duplicate row" in capsys.readouterr().err


def test_behavior_file_round_trip_json(capsys, tmp_path):
    path = tmp_path / "b.json"
    doc = _run_json(capsys, ["simulate", "--n", "2", "--kind", "p22",
                             "--out", str(path)])
    assert doc["behavior_path"] == str(path)
    assert "behavior" not in doc
    back = load_behavior_json(path)
    direct = evaluate_chain(standard_scenario(2, KIND_P22))
    assert np.array_equal(back.table, direct.table)
    assert np.allclose(compute_IJ(back), compute_IJ(direct), atol=1e-12)


def test_behavior_file_round_trip_csv(capsys, tmp_path):
    path = tmp_path / "b.csv"
    _run_json(capsys, ["simulate", "--n", "2", "--kind", "p22",
                       "--format", "csv", "--out", str(path)])
    back = load_behavior_csv(path, KIND_P22, 2)
    direct = evaluate_chain(standard_scenario(2, KIND_P22))
    assert np.array_equal(back.table, direct.table)


def test_lp_on_written_behavior_matches_builtin(capsys, tmp_path):
    path = tmp_path / "b.json"
    _run_json(capsys, ["simulate", "--n", "2", "--kind", "p14",
                       "--out", str(path)])
    from_file = _run_json(capsys, ["lp", "--behavior", str(path)])
    builtin = _run_json(capsys, ["lp", "--n", "2", "--kind", "p14"])
    assert from_file["result"]["feasible"] and builtin["result"]["feasible"]
    assert abs(from_file["result"]["max_residual"]
               - builtin["result"]["max_residual"]) < 1e-12


def test_lp_json_admits_every_p14_chain_the_lp_admits(capsys, tmp_path):
    # p14 n = 7, the longest chain lp --n admits, also passes as a JSON file
    path = tmp_path / "b7.json"
    _run_json(capsys, ["simulate", "--n", "7", "--kind", "p14", "--out", str(path)])
    assert path.stat().st_size <= LP_FILE_BYTE_GUARD
    assert _run_json(capsys, ["lp", "--behavior", str(path)])["result"]["feasible"]


def test_lp_chain_pr_source(capsys):
    doc = _run_json(capsys, ["lp", "--n", "2", "--kind", "p22",
                             "--source", "chain-pr"])
    assert not doc["result"]["feasible"]
    assert doc["result"]["weights"] is None


def test_tightness_payload(capsys):
    doc = _run_json(capsys, ["tightness", "--r", "0.5", "--n", "4",
                             "--kind", "p22"])
    report = doc["report"]
    assert abs(abs(report["I"]) - 0.25) < 1e-12
    assert abs(abs(report["J"]) - 0.25) < 1e-12
    assert abs(report["nlocal_value"] - 1.0) < 1e-12
    assert doc["expected"] == {"I": 0.25, "J": 0.25}


def test_tightness_model_file(capsys, tmp_path):
    path = tmp_path / "model.json"
    _run_json(capsys, ["tightness", "--r", "0.3", "--model-out", str(path)])
    from netlocal.hvmodels import model_from_json, model_IJ
    model = model_from_json(json.loads(path.read_text()))
    I, J = model_IJ(model)
    assert abs(I - 0.09) < 1e-12 and abs(J - 0.49) < 1e-12


def _refuse(*args, **kwargs):
    raise AssertionError("this route must not be taken")


def test_simulate_checks_no_party_once_warm(capsys, monkeypatch, tmp_path):
    # the per-kind settings are checked once; after that a request checks
    # only its visibilities, and checks no party and no source state
    import netlocal.network
    for kind in ("p22", "p14"):
        _run_json(capsys, ["simulate", "--n", "2", "--kind", kind])
    monkeypatch.setattr(netlocal.network.Party, "__new__", _refuse)
    monkeypatch.setattr(netlocal.network.SourceState, "__post_init__", _refuse)
    for kind in ("p22", "p14"):
        for argv in (["simulate", "--n", "5", "--kind", kind, "--alphas", "0.9,0.8,1,0,0.7"],
                     ["simulate", "--n", "4", "--kind", kind, "--out", str(tmp_path / "b.csv"),
                      "--format", "csv"],
                     ["lp", "--n", "2", "--kind", kind]):
            assert main(argv) == 0, argv
            capsys.readouterr()


@pytest.mark.parametrize("kind", ["p22", "p14"])
def test_tightness_without_a_table(capsys, monkeypatch, kind):
    import netlocal.hvmodels
    monkeypatch.setattr(netlocal.hvmodels, "behavior_of_model", _refuse)
    doc = _run_json(capsys, ["tightness", "--n", "40", "--kind", kind,
                             "--r", "0.3"])
    assert abs(doc["report"]["I"] - 0.09) < 1e-12
    assert abs(doc["report"]["J"] - 0.49) < 1e-12


def test_montecarlo_determinism(capsys):
    argv = ["montecarlo", "--n", "3", "--trials", "300", "--seed", "7"]
    first = _run_json(capsys, argv)
    second = _run_json(capsys, argv)
    assert first == second
    assert first["result"]["bound_satisfied"]
    assert first["result"]["max_nlocal_value"] <= 1.0 + 1e-9


def test_montecarlo_mixture_mode(capsys):
    doc = _run_json(capsys, ["montecarlo", "--n", "2", "--trials", "200",
                             "--seed", "1", "--mixture"])
    assert doc["result"]["bound_satisfied"]
    assert "max_local_value" in doc["result"]


def test_threshold_payload(capsys):
    doc = _run_json(capsys, ["threshold", "--n", "2", "--kind", "p14"])
    res = doc["result"]
    assert abs(res["product"] - 0.5) < 1e-6
    assert abs(res["single_source_reference"] - 1.0 / math.sqrt(2.0)) < 1e-15


def test_figure4_json_and_csv(capsys, tmp_path):
    doc = _run_json(capsys, ["figure4", "--grid-step", "0.5"])
    assert doc["result"]["kind"] == "p22" and doc["result"]["n"] == 2
    assert len(doc["result"]["tightness_curve"]) == 3

    code, out = _run(capsys, ["figure4", "--grid-step", "0.5",
                              "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "series,param,I,J"
    assert any(line.startswith("tightness,") for line in lines)

    # with --out the CSV goes to the file, and stdout carries the payload,
    # as every other --out
    path = tmp_path / "fig.csv"
    doc_csv = _run_json(capsys, ["figure4", "--grid-step", "0.5", "--format", "csv",
                                 "--out", str(path)])
    assert path.read_text() == out
    assert doc_csv["config"] == {**doc["config"], "format": "csv", "out": str(path)}
    assert doc_csv["result"] == doc["result"]


def test_figure4_builds_no_table(capsys, monkeypatch):
    import netlocal.analysis
    import netlocal.behavior
    import netlocal.evaluator
    import netlocal.hvmodels
    for module in (netlocal.analysis, netlocal.behavior, netlocal.evaluator, netlocal.hvmodels):
        for name in ("behavior_of_model", "chain_table", "evaluate_chain"):
            monkeypatch.setattr(module, name, _refuse, raising=False)
    for kind in ("p22", "p14"):
        doc = _run_json(capsys, ["figure4", "--n", "40", "--kind", kind])
        assert doc["result"]["pi_point"] == {"I": -1.0, "J": 0.0}
        assert doc["result"]["pj_point"] == {"I": 0.0, "J": -1.0}


def test_decomposition_payload(capsys):
    doc = _run_json(capsys, ["decomposition", "--n", "2", "--kind", "p14"])
    assert doc["result"]["ok"]
    assert doc["result"]["exact_mixture"]


# Payloads recorded from the implementation, one case per line: each holds
# argv, the printed payload and the files the run writes, with every float
# rounded to 12 significant digits.  A difference here is a payload change.
PINNED_PAYLOADS = json.loads((Path(__file__).parent / "data" / "default_payloads.json").read_text())


def _pinned(value):
    """value with every float rounded to 12 significant digits, key order kept."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _pinned(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_pinned(v) for v in value]
    return value


@pytest.mark.parametrize("case", PINNED_PAYLOADS, ids=lambda case: case["name"])
def test_default_payloads_are_pinned(capsys, monkeypatch, tmp_path, case):
    monkeypatch.chdir(tmp_path)  # relative --model-out paths, echoed verbatim
    if "exit" in case:
        # a refusal: the exit code and the message, with nothing on stdout
        code = main(case["argv"])
        assert (code, *capsys.readouterr()) == (case["exit"], "", case["stderr"])
        return
    doc = _run_json(capsys, case["argv"])
    # compared as JSON text, so key order and int/float types count too
    assert json.dumps(_pinned(doc), indent=1) == json.dumps(case["payload"], indent=1)
    for name, content in case["files"].items():
        written = json.loads((tmp_path / name).read_text())
        assert json.dumps(_pinned(written), indent=1) == json.dumps(content, indent=1)


# SHA-256 of the files `simulate --out` writes, recorded from the json.dump
# and csv.writer writers that the streamed ones replaced: p22 and p14,
# n = 2..6, JSON and CSV, at fixed visibilities.  A difference is a change
# in the bytes of a behavior file.
PINNED_FILES = json.loads((Path(__file__).parent / "data" / "simulate_files.json").read_text())


@pytest.mark.parametrize("case", PINNED_FILES, ids=lambda case: case["name"])
def test_simulate_files_are_pinned(capsys, monkeypatch, tmp_path, case):
    monkeypatch.chdir(tmp_path)
    _run_json(capsys, case["argv"])
    written = (tmp_path / case["argv"][-1]).read_bytes()
    assert hashlib.sha256(written).hexdigest() == case["sha256"]


# SHA-256 of what `simulate --n N` prints, recorded from the json.dumps
# printer that the streamed one replaced: p22 and p14, n = 2..6, noiseless
# and at fixed visibilities.  A difference is a change in the printed bytes.
PINNED_STDOUT = json.loads((Path(__file__).parent / "data" / "simulate_stdout.json").read_text())


@pytest.mark.parametrize("case", PINNED_STDOUT, ids=lambda case: case["name"])
def test_simulate_stdout_is_pinned(capsys, case):
    code, out = _run(capsys, case["argv"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


# SHA-256 of what `threshold` prints, recorded from the search that decided
# every bisection step on the exact line: p22 n = 2..9 and p14 n = 2..8,
# with all sources equal and with one seeded uneven profile, and both kinds
# with all sources equal at n = 25, 40, 200 and 1000.  `--bound local` is
# never crossed on a standard chain: each of those runs is pinned as its
# exit code and message, with nothing on stdout.
PINNED_THRESHOLD = json.loads((Path(__file__).parent / "data" / "threshold_stdout.json").read_text())


@pytest.mark.parametrize("case", PINNED_THRESHOLD, ids=lambda case: case["name"])
def test_threshold_stdout_is_pinned(capsys, case):
    code = main(case["argv"])
    out, err = capsys.readouterr()
    if "exit" in case:
        assert (code, out, err) == (case["exit"], "", case["stderr"])
        return
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


def test_streamed_payload_matches_json_dumps(tmp_path):
    # -0.0 beside 0.0 and a subnormal, and rows of all-distinct values
    edges = uniform_behavior(KIND_P22, 3).table.copy()
    edges[0, :4] = [-0.0, 0.0, 5e-324, 0.25]
    distinct = np.random.default_rng(5).random((4, 64))
    for b in (Behavior(KIND_P22, 3, edges),
              Behavior("p14", 3, distinct / distinct.sum(axis=1, keepdims=True))):
        payload = {"command": "simulate", "report": {"I": 0.5}, "behavior": b}
        with open(tmp_path / "out", "w") as fh:
            _print_payload(payload, fh)
        expected = json.dumps({**payload, "behavior": behavior_to_json(b)}, indent=2) + "\n"
        assert (tmp_path / "out").read_text() == expected


def _lp_request_argvs(workdir):
    """The shapes of the benchmark's lp requests, p22 and p14, n = 2 and 3:
    quantum tables read from JSON and CSV, chain-PR, and PR-box mixtures
    with white noise on both sides of 1/2, from both formats."""
    argvs = []
    for kind in (KIND_P22, KIND_P14):
        for n in (2, 3):
            lp = ["lp", "--n", str(n), "--kind", kind]
            argvs.append(lp + ["--source", "chain-pr"])
            pr, noise = chain_pr_behavior(kind, n), uniform_behavior(kind, n)
            for fmt, save in (("json", save_behavior_json), ("csv", save_behavior_csv)):
                path = str(workdir / f"quantum-{kind}-{n}.{fmt}")
                save(evaluate_chain(standard_scenario(n, kind, [0.9] * n)), path)
                argvs.append(lp + ["--behavior", path])
                for w in (0.3, 0.7):
                    path = str(workdir / f"mixture-{kind}-{n}-{w}.{fmt}")
                    save(mix_behaviors([w, 1.0 - w], [pr, noise]), path)
                    argvs.append(lp + ["--behavior", path])
    return argvs


def test_printed_payloads_match_json_dumps(monkeypatch, tmp_path):
    # every pinned payload and every benchmark lp request shape: the spliced
    # lists (a table, the lp weights) leave the bytes of json.dumps
    monkeypatch.chdir(tmp_path)
    argvs = [case["argv"] for case in PINNED_PAYLOADS if "exit" not in case]
    argvs += [["simulate", "--n", "3"]] + _lp_request_argvs(tmp_path)
    for argv in argvs:
        args = build_parser().parse_args(argv)
        payload = args.func(args)
        out = io.StringIO()
        _print_payload(payload, out)
        assert out.getvalue() == json.dumps(payload, indent=2, default=behavior_to_json) + "\n", argv


def test_cached_parser_keeps_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    doc = _run_json(capsys, ["simulate", "--n", "2", "--alphas", "0.5,0.5"])
    assert doc["config"]["alphas"] == [0.5, 0.5]
    doc = _run_json(capsys, ["simulate", "--n", "2"])
    assert doc["config"]["alphas"] == [1.0, 1.0]
    assert doc["report"]["abs_I"] == pytest.approx(0.5)
    # a usage error after a successful call still exits 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "2", "--alphas", "0.5"])
    assert exc.value.code == 2
    assert "--alphas needs exactly 2 entries" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["montecarlo", "--trials", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    for argv, shown in ((["--help"], "decomposition"), (["simulate", "--help"], "--alphas")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: netlocal") and shown in out
    # a call after help is unaffected
    assert _run_json(capsys, ["simulate", "--n", "2"])["config"]["alphas"] == [1.0, 1.0]


# ---------------------------------------------------------------------------
# edge probe: seeded requests to every subcommand, each flag left out or
# given an edge value.  Every accepted request is small, so each finishes
# or is refused within a second

_EDGE_NUMBERS = ["nan", "inf", "-inf", "1e308", "+3", "0x10", "", "-1", "0", "10**9",
                 "1000000000"]
_EDGE_LISTS = ["", ",", "nan,nan", "inf,0.9", "1e308,0.9", "+0.9,0.95", "0x10,0.9",
               "0.9,0.95", "0.99,0.99,0.99", "0.9"]


def _probe_flags(files):
    """Each subcommand's flags and the values the probe draws for them;
    "{...}" names a path from files."""
    n = ["2", "+3", "1", "3"] + _EDGE_NUMBERS
    kind = ["p22", "p14", "p13", ""]
    out = ["{json}", "{csv}", "{dir}", "{missing_dir}"]
    return {
        "simulate": {"--n": n, "--kind": kind, "--alphas": _EDGE_LISTS, "--out": out,
                     "--format": ["json", "csv", "xml"]},
        "tightness": {"--n": n, "--kind": kind, "--model-out": out,
                      "--r": ["0.5", "0", "1", "+0.25"] + _EDGE_NUMBERS},
        "montecarlo": {"--n": n, "--kind": kind, "--mixture": None,
                       "--trials": ["1", "3", "+3"] + _EDGE_NUMBERS,
                       "--seed": ["0", "7", "+3"] + _EDGE_NUMBERS,
                       "--cardinality": ["1", "2", "+3"] + _EDGE_NUMBERS,
                       "--workers": ["1", "2", "+2", "0", "-1", "nan", "0x10", ""]},
        "lp": {"--n": ["2", "+2", "1"] + _EDGE_NUMBERS, "--kind": kind,
               "--source": ["quantum", "chain-pr", "pr"],
               "--behavior": ["{lp_json}", "{lp_csv}", "{dir}", "{missing}"],
               "--tol": ["1e-9", "1"] + _EDGE_NUMBERS},
        "threshold": {"--n": n, "--kind": kind, "--alphas": _EDGE_LISTS,
                      "--bound": ["nlocal", "local", "both"]},
        "figure4": {"--n": n, "--kind": kind, "--out": out, "--format": ["json", "csv", "xml"],
                    "--grid-step": ["0.05", "0.5", "0.25", "1e-300", "5e-324"] + _EDGE_NUMBERS},
        "decomposition": {"--n": n, "--kind": kind},
    }


@st.composite
def _probe_argv(draw, flags):
    command = draw(st.sampled_from(sorted(flags)))
    argv = [command]
    for flag, values in flags[command].items():
        if draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(st.sampled_from(values))]
    if command == "montecarlo" and "--trials" not in argv:
        argv += ["--trials", "3"]  # the default, 10^4 trials, is not an edge
    return argv


@pytest.fixture(scope="module")
def probe_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("probe")
    lp_json, lp_csv = root / "b2.json", root / "b2.csv"
    assert _probe(["simulate", "--n", "2", "--out", str(lp_json)])[0] == 0
    assert _probe(["simulate", "--n", "2", "--out", str(lp_csv), "--format", "csv"])[0] == 0
    (root / "dir").mkdir()
    return {"json": root / "out.json", "csv": root / "out.csv", "dir": root / "dir",
            "missing_dir": root / "missing" / "out.json", "missing": root / "missing.json",
            "lp_json": lp_json, "lp_csv": lp_csv}


def _probe(argv):
    """(exit code, stdout, stderr, seconds) of one in-process request."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_edge_probe(probe_files, data):
    argv = data.draw(_probe_argv(_probe_flags(probe_files)))
    argv = [a.format(**probe_files) for a in argv]
    code, out, err, seconds = _probe(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert seconds < 1.0, (argv, seconds)
    if code == 0 and not (argv[0] == "figure4" and "csv" in argv and "--out" not in argv):
        json.loads(out)  # one JSON document
