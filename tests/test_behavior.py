"""Behavior tables: validation, correlators, bounds, serialization."""

import csv
import itertools
from itertools import product
import json
import math
import tracemalloc

import numpy as np
import pytest

from netlocal import behavior as behavior_module
from netlocal.behavior import (
    TABLE_BLOCK_CELLS,
    VIOLATION_ATOL,
    Behavior,
    alphabets,
    behavior_from_json,
    behavior_to_json,
    bound_values,
    chain_table,
    compute_IJ,
    correlator_report,
    ij_factors,
    load_behavior_csv,
    load_behavior_json,
    mix_behaviors,
    save_behavior_csv,
    save_behavior_json,
    uniform_behavior,
)
from netlocal.errors import DimensionError, KindError, RangeError, SizeGuardError
from netlocal.evaluator import (_party_tensors, _real_if_real, closed_form_p14,
                                closed_form_p22_end_parity, evaluate_chain)
from netlocal.hvmodels import (_model_parties, behavior_of_model, decomposition_model,
                               sample_random_model)
from netlocal.network import KIND_P14, KIND_P22, NetworkScenario, standard_scenario


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


def _spanning_table():
    """A valid p22 n = 9 table that spans several validation blocks, and
    the rows of its first and of its last block."""
    table = uniform_behavior(KIND_P22, 9).table.copy()
    step = TABLE_BLOCK_CELLS // table.shape[1]
    assert table.shape[0] >= 3 * step
    return table, (0, step - 1), (table.shape[0] - step, table.shape[0] - 1)


@pytest.mark.parametrize("block", ["first", "last"])
@pytest.mark.parametrize("fault", ["nan", "negative", "row-sum"])
def test_validation_covers_every_block(block, fault):
    table, first, last = _spanning_table()
    row = (first if block == "first" else last)[1 if fault == "row-sum" else 0]
    if fault == "nan":
        table[row, 7] = np.nan
    elif fault == "negative":
        table[row, 7] = -1e-9
    else:
        table[row, 7] += 1e-9
    with pytest.raises(RangeError):
        Behavior(KIND_P22, 9, table)


def test_validation_reports_over_the_whole_table():
    # the first block fails on its maximum; the message still names the
    # minimum in the last block, as a check of the whole table would
    table, first, last = _spanning_table()
    table[first[0], 0] = 1.5
    table[last[1], 0] = -0.25
    with pytest.raises(RangeError, match=r"^table entries outside \[0, 1\]: min=-0.25, max=1.5$"):
        Behavior(KIND_P22, 9, table)
    # a row-sum fault before a range fault: the range fault is reported
    table, first, last = _spanning_table()
    table[first[0], 0] += 1e-6
    table[last[0], 0] = np.nan
    with pytest.raises(RangeError, match="min=nan, max=nan"):
        Behavior(KIND_P22, 9, table)
    table, first, last = _spanning_table()
    table[first[0], 0] += 1e-6
    table[last[0], 0] += 2e-6
    with pytest.raises(RangeError, match=r"worst deviation 2\.0\d*e-06"):
        Behavior(KIND_P22, 9, table)


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


def _row_correlator(row, signs):
    """sum_a prod_p signs[p][a_p] * row[a], contracted one party at a time
    from the last."""
    v = row
    for s in reversed(signs):
        v = v.reshape(-1, s.size) @ s
    return float(v[0])


def _row_by_row_IJ(b):
    """compute_IJ as a loop over the weighed rows, one row at a time, kept
    as the reference for its bits."""
    values = []
    for weights, signs in ij_factors(b.kind, b.n):
        total = 0.0
        for xs in product(*(np.flatnonzero(w) for w in weights)):
            coeff = math.prod(float(w[x]) for w, x in zip(weights, xs))
            total += coeff * _row_correlator(b.table[b.input_index(xs)], signs)
        values.append(total)
    return values[0], values[1]


def test_compute_IJ_matches_the_row_by_row_loop():
    rng = np.random.default_rng(42)
    cases = [closed_form_p14(3), closed_form_p22_end_parity(4),
             _deterministic(KIND_P22, 3, lambda x1, x2, x3, x4: (x1 & x3, x2, 0, x4 & x3))]
    for kind, ns in ((KIND_P22, range(2, 10)), (KIND_P14, range(2, 10))):
        for n in ns:
            cases.append(evaluate_chain(standard_scenario(n, kind, rng.uniform(0.0, 1.0, size=n))))
            cases.append(_random_rows(kind, min(n, 6), seed=n))
    cases.append(Behavior(KIND_P14, 4, np.asfortranarray(_random_rows(KIND_P14, 4).table)))
    for b in cases:
        got, want = compute_IJ(b), _row_by_row_IJ(b)
        assert all(type(v) is float for v in got)
        assert got == want, (b.kind, b.n, got, want)


def _unblocked_IJ(b):
    """Reference for compute_IJ: the stacked rows signed in one pass, every
    step over the whole view, as before the blocks."""
    values = []
    for weights, signs in ij_factors(b.kind, b.n):
        picks = [np.flatnonzero(w) for w in weights]
        v = b.table.reshape(b.input_sizes + (-1,))[tuple(slice(p[0], p[-1] + 1) for p in picks)]
        lead = v.shape[:-1]
        for s in reversed(signs):
            v = v.reshape(lead + (-1, s.size)) @ s
        total = 0.0
        for xs, corr in zip(product(*picks), v.reshape(-1).tolist()):
            total += math.prod(float(w[x]) for w, x in zip(weights, xs)) * corr
        values.append(total)
    return values[0], values[1]


def test_compute_IJ_in_blocks_keeps_the_unblocked_bits():
    rng = np.random.default_rng(45)
    for kind in (KIND_P22, KIND_P14):
        for n in range(2, 10):
            b = evaluate_chain(standard_scenario(n, kind, rng.uniform(0.0, 1.0, size=n)))
            assert compute_IJ(b) == _unblocked_IJ(b), (kind, n)
    # p14 from n = 8 on has more than TABLE_BLOCK_CELLS cells in its rows;
    # every cell distinct, so that any change in a sum's order would show
    assert 4 ** 9 > TABLE_BLOCK_CELLS
    for n, seed in product((8, 9), range(3)):
        b = _random_rows(KIND_P14, n, seed)
        assert compute_IJ(b) == _unblocked_IJ(b), (n, seed)


def test_compute_IJ_peak_allocation_is_bounded_by_the_block():
    b = evaluate_chain(standard_scenario(9, KIND_P14))
    compute_IJ(b)
    tracemalloc.start()
    try:
        compute_IJ(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the unblocked pass held half of the 8 MiB table: 5.0 MiB
    assert peak <= 1.5 * 2 ** 20, peak


def test_bound_values_match_the_numpy_formula():
    values = (0.0, 5e-324, 0.25, 1.0, 1.0 + VIOLATION_ATOL)
    for I, J in product([v * sign for v in values for sign in (1.0, -1.0)], repeat=2):
        report = bound_values(I, J)
        nlocal = np.sqrt(np.abs(np.float64(I))) + np.sqrt(np.abs(np.float64(J)))
        local = np.abs(np.float64(I)) + np.abs(np.float64(J))
        assert report.nlocal_value == float(nlocal) and type(report.nlocal_value) is float
        assert report.local_value == float(local)
        assert report.violates_nlocal is bool(nlocal > 1.0 + VIOLATION_ATOL)
        assert report.violates_local is bool(local > 1.0 + VIOLATION_ATOL)
    for bad in ((np.nan, 0.25), (0.25, np.nan), (float("nan"), float("nan"))):
        with pytest.raises(RangeError):
            bound_values(*bad)


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


def test_csv_round_trip_for_both_kinds(tmp_path):
    path = tmp_path / "b.csv"
    for kind in (KIND_P22, KIND_P14):
        for n in range(2, 7):
            b = evaluate_chain(standard_scenario(n, kind, np.linspace(0.7, 1.0, n)))
            save_behavior_csv(b, path)
            assert np.array_equal(load_behavior_csv(path, kind, n).table, b.table), (kind, n)


def test_csv_reads_digits_as_int_does(tmp_path):
    # digits written otherwise than save_behavior_csv writes them still parse
    path, lines = _csv_lines(tmp_path)
    lines[1:3] = [",".join(f" 0{d}" if i < 6 else d for i, d in enumerate(line.split(",")))
                  for line in lines[1:3]]
    path.write_text("\n".join(lines) + "\n")
    back = load_behavior_csv(path, KIND_P22, 2)
    assert np.array_equal(back.table, closed_form_p22_end_parity(2).table)


def test_csv_rejects_bad_rows_naming_the_line(tmp_path):
    for kind, row, error in (
        (KIND_P22, "0,0,0,0,2,0,0.5", "digit 2 out of range 0..1"),
        (KIND_P22, "0,0,1,-1,0,0,0.5", "digit -1 out of range 0..1"),
        (KIND_P22, "0,0,0,0,x,0,0.5", "invalid literal for int"),
        (KIND_P22, "0,0,0,0,0.0,0,0.5", "invalid literal for int"),
        (KIND_P22, "0,0,0,0,0,0,half", "could not convert string to float"),
        (KIND_P14, "1,0,0,0,4,1,0.5", "digit 4 out of range 0..3"),
        (KIND_P14, "0,1,0,0,1,1,0.5", "digit 1 out of range 0..0"),
    ):
        path = tmp_path / "b.csv"
        save_behavior_csv(uniform_behavior(kind, 2), path)
        lines = path.read_text().splitlines()
        for k in (1, 9, len(lines) - 1):
            bad = lines[:k] + [row] + lines[k + 1:]
            path.write_text("\n".join(bad) + "\n")
            with pytest.raises(DimensionError, match=f"b.csv, line {k + 1}: {error}"):
                load_behavior_csv(path, kind, 2)
        # the same row appended again, now in range, is a duplicate
        path.write_text("\n".join(lines + [lines[9]]) + "\n")
        with pytest.raises(DimensionError, match=f"line {len(lines) + 1}: duplicate row"):
            load_behavior_csv(path, kind, 2)


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


def test_long_chain_tables_are_refused_without_printing_their_size():
    # 4**20001 cells has more digits than str() converts
    for kind in (KIND_P22, KIND_P14):
        sc = standard_scenario(2, kind)
        long = NetworkScenario(n=20000, kind=kind, sources=[1.0] * 20000,
                               end_settings=sc.end_settings,
                               intermediate_settings=sc.intermediate_settings * 19999)
        for build in (lambda: evaluate_chain(long),
                      lambda: behavior_of_model(decomposition_model(kind, 20000, 0))):
            with pytest.raises(SizeGuardError, match="20001-party chain, over"):
                build()


def test_csv_size_guard_refuses_before_allocating(monkeypatch, tmp_path):
    # n = 12 would need 576 MB and n = 40 is beyond any array; the guard
    # is simulate's largest table, and it comes before any allocation
    def refuse(*args, **kwargs):
        raise AssertionError("the guard must come before any table")

    path = tmp_path / "b.csv"
    path.write_text("x1,a1,p\n")
    monkeypatch.setattr(np, "zeros", refuse)
    for kind in (KIND_P22, KIND_P14):
        for n in (12, 40):
            with pytest.raises(SizeGuardError, match="b.csv: behavior table cells at n"):
                load_behavior_csv(path, kind, n)


# The writers that the streamed ones replaced, kept as the reference for
# their bytes: json.dump of the whole document, and csv.writer cell by cell.
def _reference_json(b, path):
    with open(path, "w") as fh:
        json.dump(behavior_to_json(b), fh)


def _reference_csv(b, path):
    ins, outs = alphabets(b.kind, b.n)
    num_parties = b.n + 1
    header = [f"x{i + 1}" for i in range(num_parties)] + \
             [f"a{i + 1}" for i in range(num_parties)] + ["p"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for xi in range(b.table.shape[0]):
            xs = np.unravel_index(xi, ins)
            for oi in range(b.table.shape[1]):
                outs_t = np.unravel_index(oi, outs)
                writer.writerow([*map(int, xs), *map(int, outs_t),
                                 repr(float(b.table[xi, oi]))])


def _edge_values(kind, n):
    """The uniform behavior with -0.0 beside 0.0, a subnormal and -1e-13 in
    row 0, rows still normalized within tolerance."""
    table = uniform_behavior(kind, n).table.copy()
    u = table[0, 0]
    table[0, :6] = [-0.0, 0.0, 5e-324, -1e-13, 3 * u, 3 * u + 1e-13]
    return Behavior(kind, n, table)


def _random_rows(kind, n, seed=3):
    """Every cell distinct: normalized uniform random rows."""
    table = np.random.default_rng(seed).random(uniform_behavior(kind, n).table.shape)
    return Behavior(kind, n, table / table.sum(axis=1, keepdims=True))


def _writer_cases():
    for kind in (KIND_P22, KIND_P14):
        for n in (2, 3, 4):
            evaluated = evaluate_chain(standard_scenario(n, kind, [0.9] * n))
            fortran = Behavior(kind, n, np.asfortranarray(evaluated.table))
            assert not fortran.table.flags.c_contiguous
            yield pytest.param(evaluated, id=f"{kind}-n{n}-evaluated")
            yield pytest.param(fortran, id=f"{kind}-n{n}-fortran")
            yield pytest.param(_random_rows(kind, n), id=f"{kind}-n{n}-random")
            yield pytest.param(uniform_behavior(kind, n), id=f"{kind}-n{n}-uniform")
            yield pytest.param(_edge_values(kind, n), id=f"{kind}-n{n}-edges")
    # rows longer than one formatting run
    yield pytest.param(evaluate_chain(standard_scenario(6, KIND_P14)), id="p14-n6-evaluated")
    yield pytest.param(_random_rows(KIND_P22, 6), id="p22-n6-random")


@pytest.mark.parametrize("b", list(_writer_cases()))
def test_writers_match_the_reference_byte_for_byte(tmp_path, b):
    for save, reference in ((save_behavior_json, _reference_json),
                            (save_behavior_csv, _reference_csv)):
        save(b, tmp_path / "new")
        reference(b, tmp_path / "ref")
        assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes(), save


def test_negative_zero_survives_both_file_formats(tmp_path):
    b = _edge_values(KIND_P22, 2)
    save_behavior_json(b, tmp_path / "b.json")
    save_behavior_csv(b, tmp_path / "b.csv")
    for back in (load_behavior_json(tmp_path / "b.json"),
                 load_behavior_csv(tmp_path / "b.csv", KIND_P22, 2)):
        assert back.table[0, 0] == 0.0 and np.signbit(back.table[0, 0])
        assert np.array_equal(back.table, b.table)


@pytest.mark.parametrize("b", [
    pytest.param(evaluate_chain(standard_scenario(8, KIND_P22)), id="p22-n8"),
    pytest.param(evaluate_chain(standard_scenario(8, KIND_P14)), id="p14-n8"),
    pytest.param(_random_rows(KIND_P22, 8), id="p22-n8-random"),
])
def test_writers_peak_allocation_stays_near_the_table(tmp_path, b):
    # p22 n=8 is 512 rows of 512 cells, p14 n=8 4 rows of 65,536: the
    # writers format fixed-size runs of cells, so long rows cost no more,
    # and a table of all-distinct values is not turned into a list of texts
    for save in (save_behavior_json, save_behavior_csv):
        tracemalloc.start()
        try:
            save(b, tmp_path / "b")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * b.table.nbytes + 2 ** 20, (save, peak / b.table.nbytes)


# ---------------------------------------------------------------------------
# the chain kernel, blocked and unblocked

def _unblocked_chain_table(parties):
    """chain_table before blocking, kept as the reference for its bytes: the
    whole running array is swept through every intermediate party, and the
    closing products are written into the table one input pair at a time."""
    first, *mids, last, closing = parties
    arr = first.transpose(0, 2, 1)  # (X, A, bond)
    for t in mids:
        arr = np.tensordot(arr, t, axes=([2], [1])).transpose(0, 2, 1, 4, 3)  # (X, x, A, a, r)
        arr = arr.reshape(arr.shape[0] * arr.shape[1], arr.shape[2] * arr.shape[3], -1)
    closing = np.tensordot(last, closing, axes=([2], [1]))  # (xi, l, ai, xe, ae)
    xi, bond, ai, xe, ae = closing.shape
    table = np.empty((arr.shape[0], xi, xe, arr.shape[1], ai * ae), np.result_type(arr, closing))
    for i, e in product(range(xi), range(xe)):
        np.matmul(arr, closing[i, :, :, e].reshape(bond, -1), out=table[:, i, e])
    return table.reshape(arr.shape[0] * xi * xe, -1)


def _unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _chain_parties(kind, n, rotated=False):
    """The party tensors evaluate_chain contracts for a standard chain at
    uneven visibilities; rotated conjugates every setting by a random
    unitary, which makes them complex."""
    sc = standard_scenario(n, kind, [0.95 - 0.03 * i for i in range(n)])
    if rotated:
        rng = np.random.default_rng(n)
        turn = [_unitary(rng, 2) for _ in range(2)] + [_unitary(rng, 4) for _ in range(n - 1)]
        sc = NetworkScenario(
            n=n, kind=kind, sources=sc.sources,
            end_settings=[[u @ o @ u.conj().T for o in obs]
                          for u, obs in zip(turn[:2], sc.end_settings)],
            intermediate_settings=[[u @ o @ u.conj().T for o in ops]
                                   for u, ops in zip(turn[2:], sc.intermediate_settings)])
    parties = _real_if_real(_party_tensors(sc.elements, sc.rhos()))
    assert np.iscomplexobj(parties[0]) == rotated
    return parties


def _assert_bit_identical(parties):
    table = chain_table(parties)
    assert table.flags.c_contiguous
    assert np.array_equal(table, _unblocked_chain_table(parties))


_SIZES = [(KIND_P22, n) for n in range(2, 12)] + [(KIND_P14, n) for n in range(2, 11)]


@pytest.mark.parametrize("kind,n", _SIZES, ids=lambda v: str(v))
def test_blocked_chain_table_is_bit_identical(kind, n):
    # p22 and p14 n >= 9 are blocked at the module's budget
    _assert_bit_identical(_chain_parties(kind, n))
    if n <= 8:
        _assert_bit_identical(_chain_parties(kind, n, rotated=True))


@pytest.mark.parametrize("kind", [KIND_P22, KIND_P14])
def test_blocked_model_tables_are_bit_identical(kind):
    # K = 3 hidden values per source: bonds of 3, not 4
    for n in range(2, 10):
        model = sample_random_model(kind, n, 3, n)
        parties = _model_parties(model.source_dists, model.responses)
        assert parties[0].shape[1] == 3
        _assert_bit_identical(parties)
        assert np.array_equal(behavior_of_model(model).table, _unblocked_chain_table(parties))


@pytest.mark.parametrize("budget", [1, 64, 1024])
def test_every_block_size_is_bit_identical(monkeypatch, budget):
    # budget 1 sweeps blocks of two prefix rows at every size, the least
    # that keeps every BLAS call a matrix-matrix product
    monkeypatch.setattr(behavior_module, "TABLE_BLOCK_CELLS", budget)
    for kind in (KIND_P22, KIND_P14):
        for n in range(2, 9):
            _assert_bit_identical(_chain_parties(kind, n))
            if n <= 5:
                _assert_bit_identical(_chain_parties(kind, n, rotated=True))
        model = sample_random_model(kind, 5, 3, 11)
        _assert_bit_identical(_model_parties(model.source_dists, model.responses))
