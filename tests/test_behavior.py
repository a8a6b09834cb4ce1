"""Behavior tables: validation, correlators, bounds, serialization."""

import itertools
import math

import numpy as np
import pytest

from netlocal.behavior import (
    Behavior,
    alphabets,
    behavior_from_json,
    behavior_to_json,
    bound_values,
    compute_IJ,
    correlator_report,
    load_behavior_csv,
    load_behavior_json,
    mix_behaviors,
    save_behavior_csv,
    save_behavior_json,
    uniform_behavior,
)
from netlocal.errors import DimensionError, KindError, RangeError
from netlocal.evaluator import closed_form_p14, closed_form_p22_end_parity
from netlocal.network import KIND_P14, KIND_P22


def test_alphabets():
    assert alphabets(KIND_P22, 3) == ((2, 2, 2, 2), (2, 2, 2, 2))
    assert alphabets(KIND_P14, 3) == ((2, 1, 1, 2), (2, 4, 4, 2))
    with pytest.raises(RangeError):
        alphabets(KIND_P22, 1)


def test_behavior_validation():
    with pytest.raises(DimensionError):
        Behavior(KIND_P22, 2, np.full((4, 8), 1.0 / 8))  # wrong input count
    bad = np.full((8, 8), 1.0 / 8)
    bad[0, 0] = -0.2
    bad[0, 1] = 0.45
    with pytest.raises(RangeError):
        Behavior(KIND_P22, 2, bad)
    non_norm = np.full((8, 8), 1.0 / 4)
    with pytest.raises(RangeError):
        Behavior(KIND_P22, 2, non_norm)
    # every comparison with NaN is False, so a NaN must fail each check
    with pytest.raises(RangeError):
        Behavior(KIND_P22, 2, np.full((8, 8), np.nan))
    for value in (np.nan, np.inf):
        one_bad = np.full((8, 8), 1.0 / 8)
        one_bad[3, 5] = value
        with pytest.raises(RangeError):
            Behavior(KIND_P22, 2, one_bad)


def test_indexing_round_trip():
    b = uniform_behavior(KIND_P14, 3)
    ins, outs = alphabets(KIND_P14, 3)
    xi = b.input_index((1, 0, 0, 1))
    assert np.unravel_index(xi, ins) == (1, 0, 0, 1)
    oi = b.outcome_index((1, 3, 2, 0))
    assert np.unravel_index(oi, outs) == (1, 3, 2, 0)
    assert b.prob((1, 0, 0, 1), (1, 3, 2, 0)) == b.table[xi, oi]


def test_uniform_behavior_has_zero_correlators():
    for kind in (KIND_P22, KIND_P14):
        assert compute_IJ(uniform_behavior(kind, 2)) == (0.0, 0.0)


def test_mix_behaviors_validation_and_linearity():
    b = uniform_behavior(KIND_P22, 2)
    c = closed_form_p22_end_parity(2)
    mixed = mix_behaviors([0.25, 0.75], [b, c])
    assert np.allclose(mixed.table, 0.25 * b.table + 0.75 * c.table)
    I_b, J_b = compute_IJ(b)
    I_c, J_c = compute_IJ(c)
    I_m, J_m = compute_IJ(mixed)
    assert np.isclose(I_m, 0.25 * I_b + 0.75 * I_c)
    assert np.isclose(J_m, 0.25 * J_b + 0.75 * J_c)
    with pytest.raises(DimensionError):
        mix_behaviors([1.0], [b, c])
    with pytest.raises(RangeError):
        mix_behaviors([0.7, 0.7], [b, c])
    with pytest.raises(KindError):
        mix_behaviors([0.5, 0.5], [b, uniform_behavior(KIND_P14, 2)])
    with pytest.raises(RangeError):
        mix_behaviors([np.nan, np.nan], [b, c])


def _deterministic(kind, n, rule):
    """Behavior answering each input tuple xs with the outcome tuple rule(*xs)."""
    ins, outs = alphabets(kind, n)
    table = np.zeros((math.prod(ins), math.prod(outs)))
    for xi, xs in enumerate(itertools.product(*map(range, ins))):
        table[xi, np.ravel_multi_index(rule(*xs), outs)] = 1.0
    return Behavior(kind, n, table)


def test_compute_IJ_on_deterministic_p22_tables():
    # I averages the all-0 intermediate inputs; J weighs the all-1 rows with
    # (-1)**(x1+xlast) end signs, which cancel on an input-independent table
    assert compute_IJ(_deterministic(KIND_P22, 2, lambda *xs: (0, 0, 0))) == (1.0, 0.0)
    assert compute_IJ(_deterministic(KIND_P22, 2, lambda *xs: (1, 0, 0))) == (-1.0, 0.0)
    # ends flip with their input only where the intermediate reads input 1
    assert compute_IJ(_deterministic(KIND_P22, 2, lambda x1, x2, x3: (x1 & x2, 0, x3 & x2))) == (1.0, 1.0)
    assert compute_IJ(_deterministic(KIND_P22, 3, lambda x1, x2, x3, x4: (x1 & x3, x2, 0, x4 & x3))) == (1.0, -1.0)


def test_compute_IJ_reads_p14_string_bits():
    # outcome string m = 2*b0 + b1: I reads bit b0 and J bit b1.  Ends that
    # answer with their input keep J's end signs from cancelling (and I's
    # average to 0); ends answering 0 do the reverse
    for m, b0, b1 in ((1, 0, 1), (2, 1, 0)):
        fixed = _deterministic(KIND_P14, 2, lambda x1, x2, x3: (0, m, 0))
        echo = _deterministic(KIND_P14, 2, lambda x1, x2, x3: (x1, m, x3))
        assert compute_IJ(fixed) == ((-1.0) ** b0, 0.0)
        assert compute_IJ(echo) == (0.0, (-1.0) ** b1)


def test_closed_form_correlators():
    for n in (2, 3):
        assert np.allclose(compute_IJ(closed_form_p14(n)), (-0.5, -0.5))
        assert np.allclose(compute_IJ(closed_form_p22_end_parity(n)), (-0.5, -0.5))


def test_bound_values_flags_and_range():
    report = bound_values(-0.5, -0.5)
    assert np.isclose(report.nlocal_value, math.sqrt(2.0))
    assert np.isclose(report.local_value, 1.0)
    assert report.violates_nlocal and not report.violates_local
    quiet = bound_values(0.25, 0.25)
    assert not quiet.violates_nlocal and not quiet.violates_local
    with pytest.raises(RangeError):
        bound_values(1.5, 0.0)
    for bad in ((np.nan, np.nan), (0.25, np.nan), (np.inf, 0.0)):
        with pytest.raises(RangeError):
            bound_values(*bad)
    doc = report.to_json()
    assert doc["abs_I"] == 0.5 and doc["abs_J"] == 0.5
    assert set(doc) == {"I", "J", "abs_I", "abs_J", "nlocal_value",
                        "local_value", "violates_nlocal", "violates_local"}


def test_correlator_report_matches_compute_IJ():
    b = closed_form_p14(2)
    report = correlator_report(b)
    I, J = compute_IJ(b)
    assert report.I == I and report.J == J


def test_json_round_trip_is_exact(tmp_path):
    b = closed_form_p14(3)
    path = tmp_path / "behavior.json"
    save_behavior_json(b, path)
    back = load_behavior_json(path)
    assert back.kind == b.kind and back.n == b.n
    assert np.array_equal(back.table, b.table)


def test_csv_round_trip_is_exact(tmp_path):
    b = closed_form_p22_end_parity(2)
    path = tmp_path / "behavior.csv"
    save_behavior_csv(b, path)
    back = load_behavior_csv(path, KIND_P22, 2)
    assert np.array_equal(back.table, b.table)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,x3,a1,a2,a3,p"


def _csv_lines(tmp_path):
    path = tmp_path / "behavior.csv"
    save_behavior_csv(closed_form_p22_end_parity(2), path)
    return path, path.read_text().splitlines()


def test_csv_rejects_duplicate_rows(tmp_path):
    path, lines = _csv_lines(tmp_path)
    path.write_text("\n".join(lines + [lines[5]]) + "\n")
    with pytest.raises(DimensionError, match=f"line {len(lines) + 1}: duplicate"):
        load_behavior_csv(path, KIND_P22, 2)


def test_csv_rejects_wrong_column_count(tmp_path):
    path, lines = _csv_lines(tmp_path)
    lines[3] += ",0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DimensionError, match="line 4: expected 7 columns, got 8"):
        load_behavior_csv(path, KIND_P22, 2)
    lines[3] = "0,0,0,0,2,0,0.5"  # outcome digit out of range
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DimensionError, match="line 4"):
        load_behavior_csv(path, KIND_P22, 2)


def test_behavior_json_schema_check():
    doc = behavior_to_json(uniform_behavior(KIND_P22, 2))
    assert doc["schema_version"] == 1
    doc["schema_version"] = 2
    with pytest.raises(KindError):
        behavior_from_json(doc)


def test_behavior_json_rejects_malformed_documents(tmp_path):
    good = behavior_to_json(uniform_behavior(KIND_P22, 2))
    for doc in (
        [good],                                  # not an object
        {**good, "table": good["table"][:-1]},   # wrong table length
        {k: v for k, v in good.items() if k != "kind"},
        {**good, "n": "x"},
        {**good, "n": None},
        {**good, "n": float("inf")},
        {**good, "n": 10 ** 1000},
        {**good, "table": ["a"] * 64},
        {**good, "table": None},
    ):
        with pytest.raises(DimensionError):
            behavior_from_json(doc)
    path = tmp_path / "b.json"
    path.write_text("{not json")
    with pytest.raises(DimensionError, match="b.json: not a JSON document"):
        load_behavior_json(path)
    path.write_text('{"schema_version": 1, "kind": "p22", "n": 2, "table": [0.5]}')
    with pytest.raises(DimensionError, match="b.json: table has 1 entries"):
        load_behavior_json(path)


def test_csv_rejects_an_empty_file(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("")
    with pytest.raises(DimensionError, match="b.csv: empty file"):
        load_behavior_csv(path, KIND_P22, 2)
