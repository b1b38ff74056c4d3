"""The double-contour walk with its two one-axis doublings run at once by
lpp._run_jobs: bit-identical to the serial walk, the same errors, serial
when nested on a worker or on one CPU, no more memory per pair sum, and on
the same worker threads as the top-curve sample ranges."""

import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from halfspace_lpp import contours as ct
from halfspace_lpp import kernels, lpp
from halfspace_lpp.model import ModelParams


def _run(monkeypatch, cpus, fn, serial_pairs=0):
    """fn() with `cpus` usable CPUs, steps of more than serial_pairs pairs
    per doubling concurrent; returns its output (or the error it raised)
    and the names of the threads its pair sums ran on."""
    names = []
    block_sums = ct._block_sums

    def recorded(*args):
        names.append(threading.current_thread().name)
        return block_sums(*args)

    with monkeypatch.context() as m:
        m.setattr(lpp, "_usable_cpus", lambda: cpus)
        m.setattr(ct, "_SERIAL_PAIRS", serial_pairs)
        m.setattr(ct, "_block_sums", recorded)
        try:
            return fn(), names
        except ct.QuadratureError as exc:
            return exc, names


def _serial_and_concurrent(monkeypatch, fn, serial_pairs=0):
    serial, serial_names = _run(monkeypatch, 1, fn, serial_pairs)
    both, both_names = _run(monkeypatch, 2, fn, serial_pairs)
    main = threading.current_thread().name
    assert set(serial_names) == {main}
    assert main in both_names and len(set(both_names)) > 1  # a worker ran doublings
    return serial, both


def test_scalar_walk_bit_identical(monkeypatch):
    cz = ct.Contour([ct.full_circle(0.0, 1.0)])
    cw = ct.Contour([ct.Circle(0.0, 0.5)])
    serial, both = _serial_and_concurrent(monkeypatch, lambda: ct.integrate_double(
        kernels._k12_coupling, cz, cw, 1e-12, lambda z: np.exp(3.0 * z) / z,
        lambda w: np.cos(w) / w))
    assert serial == both


def test_batched_walk_bit_identical(monkeypatch):
    # the default floor: the edge batch's doublings pass it from level (0, 0)
    xs = np.linspace(-0.3, 1.5, 40)
    serial, both = _serial_and_concurrent(
        monkeypatch, lambda: kernels.edge_k12_diag_batch(xs, ModelParams(0.5, 1.4), 100, 0.5),
        ct._SERIAL_PAIRS)
    assert serial[0].tobytes() == both[0].tobytes() and serial[1] == both[1]


def test_exact_kernel_bit_identical(monkeypatch):
    P = ModelParams(0.4, 0.7)
    serial, both = _serial_and_concurrent(
        monkeypatch, lambda: kernels.kernel_geo(1, 1, 0, 2, P, 3, 1, 0))
    assert serial == both


@pytest.mark.parametrize("bad, levels", [("z", (1, 0)), ("w", (0, 1)), ("zw", (1, 0))])
def test_non_finite_doubling_raises_as_serial(monkeypatch, bad, levels):
    # finite on the nodes of level 0 (the z circle's upper 128, the w
    # circle's 256), NaN on the axes in `bad` above it
    level0 = {"z": 128, "w": 256}

    def factor(axis):
        return lambda z: np.exp(z) if len(z) == level0[axis] or axis not in bad else z * np.nan

    serial, both = _serial_and_concurrent(monkeypatch, lambda: ct.integrate_double(
        kernels._k12_coupling, ct.Contour([ct.Circle(0.0, 1.0)]),
        ct.Contour([ct.Circle(0.0, 0.5)]), 1e-9, factor("z"), factor("w")))
    assert isinstance(serial, ct.QuadratureError) and isinstance(both, ct.QuadratureError)
    assert serial.levels == both.levels == levels
    assert serial.partial == both.partial and str(serial) == str(both)


def _inner():
    """A small double integral, run inside a coupling or a factor."""
    circle = ct.Contour([ct.Circle(0.0, 1.0)])
    return ct.integrate_double(kernels._k11_coupling, circle,
                               ct.Contour([ct.Circle(0.0, 0.5)]), 1e-9)[0]


@pytest.mark.parametrize("inside", ["coupling", "factor"])
def test_walk_inside_a_walk_finishes_serial(monkeypatch, inside):
    # inner walks run in the caller (inside the w-doubling) and on a worker
    # (inside the z-doubling); those on a worker run in order in its thread
    nest = [False]

    def coupling(z, w):
        if nest[0] and inside == "coupling":
            _inner()
        return kernels._k12_coupling(z, w)

    def z_factor(z):
        if nest[0] and inside == "factor":
            _inner()
        return np.exp(z)

    sets = []  # per job set: the thread that started it, those its jobs ran on
    run_jobs = lpp._run_jobs

    def recorded(jobs):
        ran = [None] * len(jobs)

        def job_at(i):
            ran[i] = threading.current_thread()
            return jobs[i]()

        out = run_jobs([lambda i=i: job_at(i) for i in range(len(jobs))])
        sets.append((threading.current_thread(), ran))
        return out

    monkeypatch.setattr(lpp, "_run_jobs", recorded)
    outer = lambda: ct.integrate_double(coupling, ct.Contour([ct.full_circle(0.0, 1.0)]),
                                        ct.Contour([ct.Circle(0.0, 0.5)]), 1e-9, z_factor)
    plain = _run(monkeypatch, 2, outer)[0]
    nest[0] = True
    out = []
    caller = threading.Thread(target=lambda: out.append(_run(monkeypatch, 2, outer)),
                              daemon=True)
    caller.start()
    caller.join(timeout=120)
    assert not caller.is_alive()
    nested = [(starter, ran) for starter, ran in sets if starter is not caller]
    assert any(starter is not threading.main_thread() for starter, _ in nested)
    assert all(ran == [starter] * len(ran) for starter, ran in nested
               if starter is not threading.main_thread())
    assert any(ran[0] is not caller for starter, ran in sets if starter is caller)
    assert out[0][0] == plain == _run(monkeypatch, 1, outer)[0]


def test_batched_pair_sum_memory_stays_tile_sized():
    # a fresh thread allocates its tile buffers inside the trace
    z, U = ct.Contour([ct.full_circle(0.0, 1.0)]).nodes(3)
    w, V = ct.Contour([ct.full_circle(0.0, 0.5)]).nodes(3)
    assert len(z) * len(w) > 2 * ct._BATCH_TILE_PAIRS
    U, V = U[:, None] * np.arange(1.0, 9.0), V[:, None] * np.arange(1.0, 9.0)
    peak = []

    def traced():
        tracemalloc.start()
        try:
            ct._block_sums(kernels._k12_coupling, z, U, w, V)
            peak.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=traced, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and peak[0] < 16e6


def test_callers_on_many_threads_share_the_worker(monkeypatch):
    # four callers on two CPUs, switching threads every 10 us: each walk's
    # value must be the serial one, whichever caller the worker serves
    circles = [ct.Contour([ct.Circle(0.0, r)]) for r in (1.0, 0.5)]
    walks = [lambda k=k: ct.integrate_double(
        kernels._k12_coupling, *circles, 1e-12, lambda z: np.exp(k * z) / z, np.cos)
        for k in range(1, 5)]
    serial = [_run(monkeypatch, 1, walk)[0] for walk in walks]
    got = {}

    def caller(i):
        got[i] = [walks[i]() for _ in range(5)]

    interval = sys.getswitchinterval()
    monkeypatch.setattr(lpp, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ct, "_SERIAL_PAIRS", 0)
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller, args=(i,), daemon=True) for i in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert all(got[i] == [serial[i]] * 5 for i in range(4))


def test_one_cpu_starts_no_worker(monkeypatch):
    monkeypatch.setattr(lpp, "_pool", None)
    before = threading.active_count()
    serial, names = _run(monkeypatch, 1, _inner)
    assert lpp._pool is None and threading.active_count() == before
    assert set(names) == {threading.current_thread().name}


def test_run_jobs_raises_the_first_error_in_list_order(monkeypatch):
    # the failing worker job is slower than the failing caller job
    monkeypatch.setattr(lpp, "_usable_cpus", lambda: 2)

    def fail(msg, delay):
        def job():
            time.sleep(delay)
            raise RuntimeError(msg)
        return job

    assert lpp._run_jobs([lambda: 1, lambda: 2]) == [1, 2]
    with pytest.raises(RuntimeError, match="worker"):
        lpp._run_jobs([fail("worker", 0.2), fail("caller", 0.0)])
    with pytest.raises(RuntimeError, match="caller"):
        lpp._run_jobs([lambda: 1, fail("caller", 0.0)])


def test_walk_and_top_curve_range_share_a_worker(monkeypatch):
    # one pool of one worker on two CPUs: the z-doublings of a concurrent
    # walk and the first sample range of a top-curve chunk run on it
    monkeypatch.setattr(lpp, "_pool", None)
    monkeypatch.setattr(lpp, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ct, "_SERIAL_PAIRS", 0)
    threads = {"walk": [], "range": []}
    block_sums, shapes = ct._block_sums, lpp._shapes
    monkeypatch.setattr(ct, "_block_sums", lambda *args: (
        threads["walk"].append(threading.current_thread()) or block_sums(*args)))
    monkeypatch.setattr(lpp, "_shapes", lambda *args: (
        threads["range"].append(threading.current_thread()) or shapes(*args)))
    try:
        _inner()
        lpp.sample_top_curves(20, 2, ModelParams(0.5, 1.4), np.random.default_rng(3), 5000)
        pool = lpp._pool
    finally:
        if lpp._pool is not None:
            lpp._pool.shutdown()
    main = threading.main_thread()
    workers = {t for ts in threads.values() for t in ts if t is not main}
    assert pool is not None and len(workers) == 1
    assert all(main in ts and workers <= set(ts) for ts in threads.values())


def test_import_starts_no_thread():
    src = Path(ct.__file__).resolve().parents[1]
    code = ("import threading, halfspace_lpp.cli, halfspace_lpp.pfaffian; "
            "print(threading.active_count())")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "1"
