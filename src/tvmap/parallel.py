"""Order-preserving fork-join map for independent work items.

:func:`pmap` splits the items into contiguous blocks, one per process.  The
caller computes the first block itself; each other block runs in a child made
by ``os.fork``, which pickles its results into a pipe and leaves with
``os._exit``.  Results are merged in item order, so the output is identical
for any worker count, and an exception is raised again in the caller with
its type.  Children inherit the caller's memory, so ``fn`` may be any
closure; only results travel back.  Each child may run on every usable
CPU but the one the caller runs on when it forks; the caller's CPU mask is
never changed.  A ``pmap`` called from inside another (from its ``fn``, in the caller or in a
child) runs serially, and so does every map where ``os.fork`` or
``os.sched_getaffinity`` is missing, which leaves forking to Linux.

Why processes and not threads: on a 2-vCPU machine with one BLAS thread, two
threads doing numpy elementwise work on separate arrays ran 0.8-1.15x as fast
as one, and two concurrent 8x128x128 PDHG solves 1.00-1.41x, while two
processes ran a 4-item training batch (8x32x32, T = 64) in 238 ms against
411 ms for one.  A bare ``fork`` plus ``waitpid`` costs about 7 ms.  Left on
OpenBLAS's default of one thread per CPU, the two processes took 1473 ms
against 395 ms, which is why :func:`pmap` pins the BLAS.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal
import sys
import traceback
from contextlib import contextmanager

# The most processes a map starts by default.  Each process holds one item's
# working set (about 270 MB at 8x128x128), so the default stays bounded on
# hosts with many CPUs; a larger count must be asked for.
DEFAULT_WORKERS_CAP = 4

# cgroup v2 CPU quota of this process's cgroup: "<quota> <period>" or "max ..."
_CPU_MAX = "/sys/fs/cgroup/cpu.max"

# True while a map runs in this process; forked children inherit it
_in_map = False


def usable_cpus() -> int:
    """The CPUs this process may use: its affinity mask, cut to a cgroup v2
    CPU quota rounded up; 1 where the platform cannot tell
    (``os.sched_getaffinity`` is missing on macOS and Windows)."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    try:
        with open(_CPU_MAX) as f:
            quota, period = f.read().split()[:2]
        cpus = min(cpus, max(1, -(-int(quota) // int(period))))
    except (OSError, ValueError):  # no cgroup v2, or no quota ("max")
        pass
    return cpus


def pmap(fn, items, workers: int = 0) -> list:
    """``[fn(it) for it in items]`` on up to ``workers`` processes (0: the
    usable CPUs, at most :data:`DEFAULT_WORKERS_CAP`), never more than the
    usable CPUs or the items.

    ``fn`` always runs with every loaded OpenBLAS on one thread, serial or
    not: BLAS threads would compete with the worker processes for the cores,
    and a product's result can depend on its thread count (the convolution's
    weight gradients do), which would make results depend on ``workers``.
    """
    global _in_map
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    items = list(items)
    if _in_map:
        return [fn(it) for it in items]
    cpus = usable_cpus()
    n = min(workers or DEFAULT_WORKERS_CAP, cpus, len(items))
    _in_map = True
    try:
        with _one_blas_thread():
            if n <= 1 or not hasattr(os, "fork"):
                return [fn(it) for it in items]
            return _fork_join(fn, items, n)
    finally:
        _in_map = False


def _fork_join(fn, items: list, n: int) -> list:
    """``items`` in ``n`` contiguous blocks: the first computed here, each
    other in a forked child; every child is reaped on every path."""
    cuts = [len(items) * k // n for k in range(n + 1)]
    blocks = [items[a:b] for a, b in zip(cuts, cuts[1:])]
    _flush_std_streams()  # or a child would write the caller's buffered text again
    cpu = _current_cpu()
    pending: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for block in blocks[1:]:
            pending.append(_fork(fn, block, cpu, [fd for _, fd in pending]))
        results = [fn(it) for it in blocks[0]]
        while pending:
            results += _join(*pending.pop(0))
        return results
    finally:
        for pid, fd in pending:
            os.close(fd)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


@contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread, restoring the
    counts after; forked children inherit the setting."""
    libs = _openblas_thread_controls()
    counts = [get() for get, _ in libs]
    for _, put in libs:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(libs, counts):
            put(count)


@functools.cache
def _openblas_thread_controls() -> list:
    """(get, set) thread-count functions of each OpenBLAS this process had
    loaded at the first call; numpy's and scipy's wheels each bundle one,
    under prefixed names.  Empty for any other BLAS."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("", ""), ("", "64_"), ("scipy_", ""), ("scipy_", "64_")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return controls


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):
            pass


def _current_cpu() -> int | None:
    """The CPU the calling thread runs on; None where libc cannot tell."""
    try:
        getcpu = ctypes.CDLL(None).sched_getcpu
    except (OSError, AttributeError):
        return None
    getcpu.argtypes, getcpu.restype = [], ctypes.c_int
    cpu = getcpu()
    return cpu if cpu >= 0 else None


def _fork(fn, block, cpu: int | None, siblings: list[int]) -> tuple[int, int]:
    """Start a child computing ``block`` off the caller's ``cpu``;
    ``siblings`` are the read ends of the pipes of the children started
    before, which the new child closes."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        _child(fn, block, cpu, w, siblings + [r])  # never returns
    os.close(w)
    return pid, r


def _child(fn, block, cpu: int | None, fd: int, inherited: list[int]) -> None:
    """Compute ``block`` on any usable CPU but the caller's ``cpu`` and write
    the pickled outcome to ``fd``; always leaves the process, whatever fails."""
    status = 1
    try:
        for other in inherited:
            os.close(other)
        # Where the kernel does not balance load across CPUs (a cpuset with
        # sched_load_balance 0), a forked child often stays on its parent's
        # CPU, both at half speed.
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)
        try:
            results = [fn(it) for it in block]
            payload = pickle.dumps((True, results, None), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            payload = pickle.dumps((False, _portable(exc), traceback.format_exc()))
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(payload)
        _flush_std_streams()
        status = 0
    finally:
        os._exit(status)


def _portable(exc: BaseException) -> bytes | None:
    """The pickled exception, or None when it does not survive a round trip."""
    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)
        return blob
    except Exception:
        return None


def _join(pid: int, fd: int) -> list:
    """The results of child ``pid``, read to the end of its pipe; the child
    is reaped before anything is raised."""
    try:
        with os.fdopen(fd, "rb") as pipe:
            payload = pipe.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0 or not payload:
        raise RuntimeError(f"pmap worker {pid} died (exit status {code}) without a result")
    ok, value, tb = pickle.loads(payload)
    if ok:
        return value
    if value is None:
        raise RuntimeError(f"pmap worker {pid} raised an exception that cannot be sent "
                           f"back:\n{tb}")
    exc = pickle.loads(value)
    if hasattr(exc, "add_note"):  # Python >= 3.11
        exc.add_note(f"raised in pmap worker {pid}:\n{tb}")
    raise exc
