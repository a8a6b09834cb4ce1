"""CLI contract: exit codes, payload schema, file round trips, determinism."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from netlocal.behavior import compute_IJ, load_behavior_csv, load_behavior_json
from netlocal.cli import main
from netlocal.errors import SizeGuardError
from netlocal.evaluator import evaluate_chain
from netlocal.network import KIND_P22, standard_scenario


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
    monkeypatch.setattr(netlocal.cli, "evaluate_chain", _refuse)
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
        ["lp", "--n", "5", "--kind", "p14"],
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

    path = tmp_path / "fig.csv"
    code, _ = _run(capsys, ["figure4", "--format", "csv", "--out", str(path)])
    assert code == 0
    assert path.read_text().startswith("series,param,I,J")


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
    doc = _run_json(capsys, case["argv"])
    # compared as JSON text, so key order and int/float types count too
    assert json.dumps(_pinned(doc), indent=1) == json.dumps(case["payload"], indent=1)
    for name, content in case["files"].items():
        written = json.loads((tmp_path / name).read_text())
        assert json.dumps(_pinned(written), indent=1) == json.dumps(content, indent=1)
