"""The dense solves run on one OpenBLAS thread and restore the count."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from spinsqueeze import blas, build_config, layers, mc, run_sweep, steady
from spinsqueeze.steady import SteadyStateMoments, collective_moments
from spinsqueeze.blas import one_blas_thread


def thread_counts():
    return [get() for get, _ in blas._controls()]


@pytest.fixture
def two_threads():
    """Every loaded OpenBLAS set to two threads, reset afterwards."""
    controls = blas._controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control found in this process")
    before = thread_counts()
    for _, set_ in controls:
        set_(2)
    yield
    for (_, set_), count in zip(controls, before):
        set_(count)


def test_one_thread_inside_and_restored_after(two_threads):
    with one_blas_thread():
        assert thread_counts() == [1] * len(blas._controls())
        with one_blas_thread():
            assert set(thread_counts()) == {1}
        assert set(thread_counts()) == {1}
    assert set(thread_counts()) == {2}
    with pytest.raises(ZeroDivisionError), one_blas_thread():
        1 / 0
    assert set(thread_counts()) == {2}


def test_concurrent_callers_restore_the_count(two_threads):
    # Overlapping entries from many threads must leave the count at
    # one until the last exits, and restore two after it.
    inside_counts = set()

    start = threading.Barrier(6)

    def worker():
        start.wait(timeout=60)
        for _ in range(200):
            with one_blas_thread():
                time.sleep(0)  # let another thread enter or leave here
                inside_counts.update(thread_counts())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert inside_counts == {1}
    assert set(thread_counts()) == {2}
    assert blas._depth == 0 and blas._saved == []


def test_numeric_sweep_factorises_and_solves_on_one_thread(two_threads, monkeypatch):
    seen = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            seen.append((name, tuple(thread_counts())))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(layers, "schur", spy("schur", layers.schur))
    monkeypatch.setattr(steady, "ztrsyl", spy("ztrsyl", steady.ztrsyl))
    config = build_config({
        "geometry.n_layers": "30",
        "input.n_photons": "log:0.1:100:5",
        "model": "numeric",
    })
    rows = run_sweep(config)
    assert [row["error"] for row in rows] == [""] * 5
    # One factorisation and two back substitutions per reduced solve, for
    # however many rungs the Krylov doubling takes to settle.
    ones = (1,) * len(blas._controls())
    solves = len(seen) // 3
    assert solves >= 1
    assert seen == [("schur", ones), ("ztrsyl", ones), ("ztrsyl", ones)] * solves
    assert set(thread_counts()) == {2}


def test_mc_check_sweep_factorises_and_solves_on_one_thread(two_threads, monkeypatch):
    # The Krylov rungs and the oracle's leading blocks both factorise.
    seen = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            seen.append((name, np.shape(args[0]), tuple(thread_counts())))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(layers, "schur", spy("schur", layers.schur))
    monkeypatch.setattr(steady, "ztrsyl", spy("ztrsyl", steady.ztrsyl))
    config = build_config({
        "model": "mc-check",
        "mc.n_traj": "2",
        "mc.t_burn": "0",
        "mc.t_avg": "1",
    })
    assert config.geometry.n_layers == 10
    rows = run_sweep(config)
    assert [row["error"] for row in rows] == [""] * len(rows)
    assert ("schur", (1, 1)) in {(name, shape) for name, shape, _ in seen}
    ones = (1,) * len(blas._controls())
    assert {counts for _, _, counts in seen} == {ones}
    assert set(thread_counts()) == {2}


def test_collective_projection_runs_on_one_thread(two_threads):
    # The projection's vector-matrix products would wake the BLAS pool,
    # whose threads then spin on the other core after the call returns.
    seen = []

    class Recording(np.ndarray):
        def __rmatmul__(self, other):
            seen.append(tuple(thread_counts()))
            return np.asarray(other) @ np.asarray(self)

    eye = np.eye(4, dtype=complex).view(Recording)
    geom = build_config({"geometry.n_layers": "4"}).geometry
    pdp, pp = collective_moments(SteadyStateMoments(eye, eye, 0.0, 0.0), geom)
    assert seen == [(1,) * len(blas._controls())] * 2
    assert pdp == pytest.approx(1.0)
    assert set(thread_counts()) == {2}


def test_trajectories_run_on_one_thread(two_threads, monkeypatch):
    # The step loop's GEMMs are (trajectories x 2 N_z) by (2 N_z x 2 N_z);
    # a second thread only hands them back and forth.
    seen = []
    step_operators = mc._step_operators

    def spy(*args, **kwargs):
        seen.append(tuple(thread_counts()))
        return step_operators(*args, **kwargs)

    monkeypatch.setattr(mc, "_step_operators", spy)
    config = build_config({
        "geometry.n_layers": "3",
        "input.n_photons": "1",
        "model": "mc-check",
        "mc.n_traj": "2",
        "mc.t_burn": "0",
        "mc.t_avg": "2",
    })
    rows = run_sweep(config)
    assert rows[0]["error"] == ""
    assert seen == [(1,) * len(blas._controls())]
    assert set(thread_counts()) == {2}
