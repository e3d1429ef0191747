import os
import signal
import sys
import time

import numpy as np
import pytest

from tvmap import parallel
from tvmap.errors import NumericalError
from tvmap.parallel import pmap, usable_cpus

forks = pytest.mark.skipif(
    not hasattr(os, "fork") or usable_cpus() < 2, reason="needs os.fork and 2 usable CPUs"
)


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test that waits more than a minute instead of hanging the run."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("pmap test ran over its minute")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _item(i):
    return i, float(i) / 3.0, np.sin(np.arange(5) * i)


def test_results_in_index_order_for_any_worker_count():
    want = [_item(i) for i in range(11)]
    for workers in (1, 2, 5, 0):
        got = pmap(_item, range(11), workers)
        assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in want]
        assert all(g.tobytes() == w.tobytes() for (_, _, g), (_, _, w) in zip(got, want))
    assert pmap(_item, [], 2) == []


@forks
def test_never_more_processes_than_usable_cpus():
    before = os.sched_getaffinity(0)
    runs = pmap(lambda _: (os.getpid(), frozenset(os.sched_getaffinity(0))), range(12), 5)
    pids = [pid for pid, _ in runs]
    assert len(set(pids)) == min(5, usable_cpus())
    assert pids[0] == os.getpid()  # the caller computes the first block
    assert pids == sorted(pids, key=pids.index)  # one contiguous block per process
    assert all(_reaped(pid) for pid in set(pids) - {os.getpid()})
    # the caller keeps its mask; each child may use every CPU of it but one
    masks = dict(runs)
    assert masks.pop(os.getpid()) == before == os.sched_getaffinity(0)
    assert all(m < before and len(m) == len(before) - 1 for m in masks.values())


@forks
def test_default_count_is_capped(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3 * parallel.DEFAULT_WORKERS_CAP)
    pids = pmap(lambda _: os.getpid(), range(12))
    assert len(set(pids)) == parallel.DEFAULT_WORKERS_CAP
    assert len(set(pmap(lambda _: os.getpid(), range(12), 6))) == 6  # asked for
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    assert len(set(pmap(lambda _: os.getpid(), range(12)))) == 2


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs os.sched_getaffinity")
@pytest.mark.parametrize("cpu_max, cap", [("150000 100000\n", 2), ("100000 100000\n", 1),
                                          ("10000 100000\n", 1), ("max 100000\n", None)])
def test_usable_cpus_respect_cgroup_quota(tmp_path, monkeypatch, cpu_max, cap):
    path = tmp_path / "cpu.max"
    path.write_text(cpu_max)
    monkeypatch.setattr(parallel, "_CPU_MAX", str(path))
    mask = len(os.sched_getaffinity(0))
    assert usable_cpus() == (mask if cap is None else min(mask, cap))
    monkeypatch.setattr(parallel, "_CPU_MAX", str(tmp_path / "missing"))
    assert usable_cpus() == mask


def test_items_run_on_one_blas_thread():
    # a product's rounding can depend on the BLAS thread count
    controls = parallel._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    before = [get() for get, _ in controls]
    for workers in (1, 2):
        counts = pmap(lambda _: [get() for get, _ in controls], range(4), workers)
        assert counts == [[1] * len(controls)] * 4
    assert [get() for get, _ in controls] == before


def test_negative_workers_rejected():
    with pytest.raises(ValueError, match="workers"):
        pmap(_item, range(3), -1)


@forks
def test_child_exception_arrives_with_its_type():
    def fn(i):
        if i == 3:  # the last block, computed in a child
            raise NumericalError(f"item {i} failed in {os.getpid()}")
        return i

    with pytest.raises(NumericalError, match="item 3 failed in") as info:
        pmap(fn, range(4), 2)
    pid = int(str(info.value).split()[-1])
    assert pid != os.getpid() and _reaped(pid)


@forks
def test_first_failure_in_item_order_wins():
    def fn(i):
        raise ValueError(f"item {i}")

    with pytest.raises(ValueError, match="item 0"):
        pmap(fn, range(4), 2)


@forks
def test_unpicklable_child_exception_becomes_runtime_error():
    class Local(Exception):  # a class pickle cannot find by name
        pass

    def fn(i):
        if i == 1:
            raise Local("local")
        return i

    with pytest.raises(RuntimeError, match="Local: local"):
        pmap(fn, range(2), 2)


@forks
def test_dead_child_raises_instead_of_hanging(tmp_path):
    def fn(i):
        if i == 1:
            (tmp_path / "pid").write_text(str(os.getpid()))
            os._exit(1)
        return i

    with pytest.raises(RuntimeError, match="died"):
        pmap(fn, range(2), 2)
    assert _reaped(int((tmp_path / "pid").read_text()))


@forks
def test_caller_failure_kills_and_reaps_children(tmp_path):
    flag = tmp_path / "pid"

    def fn(i):
        if i == 1:
            flag.write_text(str(os.getpid()))
            time.sleep(600)
            return i
        for _ in range(500):  # wait until the child runs, then fail
            if flag.exists() and flag.read_text():
                break
            time.sleep(0.01)
        raise KeyError("caller")

    with pytest.raises(KeyError, match="caller"):
        pmap(fn, range(2), 2)  # would wait out the child's sleep unless it is killed
    assert _reaped(int(flag.read_text()))


@forks
def test_nested_pmap_runs_serially():
    outer = pmap(lambda _: pmap(lambda _: os.getpid(), range(4), 2), range(2), 2)
    assert [len(set(inner)) for inner in outer] == [1, 1]
    assert outer[0][0] == os.getpid() != outer[1][0]
    # in a serial outer map too, and a later top-level map forks again
    outer = pmap(lambda _: pmap(lambda _: os.getpid(), range(4), 2), range(2), 1)
    assert outer == [[os.getpid()] * 4] * 2
    assert len(set(pmap(lambda _: os.getpid(), range(4), 2))) == 2


@forks
def test_nesting_flag_cleared_after_failure():
    def fail(_):
        raise ValueError("inner")

    with pytest.raises(ValueError, match="inner"):
        pmap(lambda _: pmap(fail, [0]), [0])
    assert not parallel._in_map
    assert len(set(pmap(lambda _: os.getpid(), range(4), 2))) == 2


def test_serial_where_fork_is_missing(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert pmap(lambda _: os.getpid(), range(4), 2) == [os.getpid()] * 4


@forks
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_maps_leave_no_descriptor_open():
    def raises(i):
        if i == 1:
            raise ValueError("child")
        return i

    def dies(i):
        if i == 1:
            os._exit(1)
        return i

    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        assert pmap(_item, range(4), 2)[3][0] == 3
        with pytest.raises(ValueError, match="child"):
            pmap(raises, range(2), 2)
        with pytest.raises(RuntimeError, match="died"):
            pmap(dies, range(2), 2)
    assert len(os.listdir("/proc/self/fd")) == before


@forks
def test_buffered_and_child_output_printed_once(capfd, monkeypatch):
    with open(os.dup(1), "w") as stream:  # block-buffered, unlike capfd's own
        monkeypatch.setattr(sys, "stdout", stream)
        print("before the map")  # still in the buffer when the map starts
        pmap(lambda i: print(f"item {i} in {os.getpid()}"), range(4), 2)
    lines = capfd.readouterr().out.splitlines()
    assert sorted(line.split(" in ")[0] for line in lines) == [
        "before the map", "item 0", "item 1", "item 2", "item 3"]
    pids = {line.split(" in ")[1] for line in lines if " in " in line}
    assert len(pids) == 2  # the children printed too
