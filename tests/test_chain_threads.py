"""The chain kernel on several threads: chain_table and Behavior validation
split a large table's blocks across threads started and joined per call.
behavior._cores is patched to force a thread count; the bits, the refusals
and the process's threads must not depend on it."""

import sys
import threading
import time

import numpy as np
import pytest

from netlocal import behavior
from netlocal.analysis import mc_nlocal_sweep
from netlocal.behavior import Behavior, chain_table
from netlocal.errors import RangeError
from netlocal.evaluator import _party_tensors, _real_if_real, evaluate_chain
from netlocal.hvmodels import behavior_of_model, sample_random_model
from netlocal.network import KIND_P14, KIND_P22, standard_scenario

KINDS = (KIND_P22, KIND_P14)


def _force_threads(monkeypatch, threads):
    monkeypatch.setattr(behavior, "_cores", lambda: threads)


def _spy_runs(monkeypatch):
    """Record the thread count of every _in_runs call."""
    counts = []
    real = behavior._in_runs

    def spy(work, items, threads):
        counts.append(threads)
        return real(work, items, threads)

    monkeypatch.setattr(behavior, "_in_runs", spy)
    return counts


def _tables(kind, n):
    """chain_table on a scenario's real and complex party tensors,
    evaluate_chain and behavior_of_model, by label."""
    rng = np.random.default_rng(100 * n + len(kind))
    scenario = standard_scenario(n, kind, list(rng.uniform(0.3, 1.0, size=n)))
    parties = _party_tensors(scenario.elements, scenario.rhos())
    model = sample_random_model(kind, n, 3, 7 * n)
    return {
        "chain_table": chain_table(_real_if_real(parties)),
        "chain_table complex": chain_table(parties),
        "evaluate_chain": evaluate_chain(standard_scenario(n, kind)).table,
        "behavior_of_model": behavior_of_model(model).table,
    }


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", (9, 10))
def test_tables_are_the_same_bytes_on_any_thread_count(monkeypatch, kind, n):
    counts = _spy_runs(monkeypatch)
    _force_threads(monkeypatch, 1)
    serial = _tables(kind, n)
    assert set(counts) == {1}
    for threads in (2, 3, 4):
        counts.clear()
        _force_threads(monkeypatch, threads)
        for label, table in _tables(kind, n).items():
            want = serial[label]
            assert table.dtype == want.dtype and table.shape == want.shape, (label, threads)
            assert table.tobytes() == want.tobytes(), (kind, n, label, threads)
        # every table and every validation ran threaded, at most one thread
        # per block: a model's bonds of 3 make fewer blocks than the forced count
        assert threads in counts and all(1 < c <= threads for c in counts), (threads, counts)


def test_small_tables_stay_on_the_serial_loop(monkeypatch):
    # one block each: every lp, threshold and montecarlo table is this small
    counts = _spy_runs(monkeypatch)
    _force_threads(monkeypatch, 4)
    for kind in KINDS:
        for n in (2, 4, 7):
            evaluate_chain(standard_scenario(n, kind))
    assert set(counts) == {1}


def _defects(table):
    """(label, table) with one defect in the last row, which lies in the
    last thread's share."""
    for label, cell, value in (("NaN", -1, np.nan), ("negative", 0, -0.25),
                               ("row sum", 0, None)):
        bad = table.copy()
        bad[-1, cell] = bad[-1, cell] + 1e-6 if value is None else value
        yield label, bad


@pytest.mark.parametrize("kind", KINDS)
def test_a_defect_in_the_last_share_raises_the_serial_message(monkeypatch, kind):
    table = evaluate_chain(standard_scenario(9, kind)).table
    for label, bad in _defects(table):
        _force_threads(monkeypatch, 1)
        with pytest.raises(RangeError) as serial:
            Behavior(kind, 9, bad)
        for threads in (2, 3, 4):
            _force_threads(monkeypatch, threads)
            with pytest.raises(RangeError) as threaded:
                Behavior(kind, 9, bad)
            assert str(threaded.value) == str(serial.value), (label, threads)


def test_no_thread_outlives_a_call(monkeypatch):
    _force_threads(monkeypatch, 4)
    before = threading.active_count()
    for kind in KINDS:
        b = evaluate_chain(standard_scenario(10, kind))
        assert threading.active_count() == before
        bad = b.table.copy()
        bad[-1, -1] = np.nan
        with pytest.raises(RangeError):
            Behavior(kind, 10, bad)
        assert threading.active_count() == before


def test_sweep_workers_fork_alike_after_a_threaded_table(monkeypatch):
    # mc_nlocal_sweep forks its workers; the table's threads are gone by then
    _force_threads(monkeypatch, 2)
    evaluate_chain(standard_scenario(10, KIND_P22))
    two = mc_nlocal_sweep(KIND_P22, 3, 2, 300, seed=11, workers=2)
    assert two == mc_nlocal_sweep(KIND_P22, 3, 2, 300, seed=11, workers=1)


def test_more_threads_than_cores_under_fast_switching(monkeypatch):
    # a switch interval of 1 us makes the threads interleave as finely as
    # the interpreter allows; the run is bounded in time, not in rounds
    cores = behavior._cores()
    _force_threads(monkeypatch, 1)
    want = {kind: evaluate_chain(standard_scenario(10, kind)).table.tobytes() for kind in KINDS}
    _force_threads(monkeypatch, 2 * cores + 1)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline, rounds = time.monotonic() + 2.0, 0
        while rounds < 2 or time.monotonic() < deadline:
            for kind in KINDS:
                assert evaluate_chain(standard_scenario(10, kind)).table.tobytes() == want[kind], (kind, rounds)
            rounds += 1
    finally:
        sys.setswitchinterval(old)
