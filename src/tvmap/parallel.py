"""Order-preserving fork-join map for independent work items.

:func:`pmap` splits the items into contiguous blocks, one per process.  The
caller computes the first block itself; each other block runs in a
``multiprocessing`` "fork" process, which sends its results back down a pipe.
Results are merged in item order, so the output is identical for any worker
count, and an exception is raised again in the caller with its type.
Children inherit the caller's memory, so ``fn`` may be any closure; only
results travel back.  Each child may run on every usable CPU but the one the
caller runs on when it starts them; the caller's CPU mask is never changed.
A ``pmap`` called from inside another (from its ``fn``, in the caller or in a
child) runs serially, and so does every map where ``os.fork`` or
``os.sched_getaffinity`` is missing, which leaves forking to Linux.

Why processes and not threads: on a 2-vCPU machine with one BLAS thread, two
threads doing numpy elementwise work on separate arrays ran 0.8-1.15x as fast
as one, and two concurrent 8x128x128 PDHG solves 1.00-1.41x, while two
processes ran a 4-item training batch (8x32x32, T = 64) in 238 ms against
411 ms for one.  Left on OpenBLAS's default of one thread per CPU, the two
processes took 1473 ms against 395 ms, which is why :func:`pmap` pins the BLAS.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
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
    other in a forked child; every child is joined and closed on every path,
    and killed first where the map failed before its results were read."""
    import multiprocessing  # loaded by the first map that forks

    ctx = multiprocessing.get_context("fork")
    cuts = [len(items) * k // n for k in range(n + 1)]
    blocks = [items[a:b] for a, b in zip(cuts, cuts[1:])]
    cpu = _current_cpu()
    children = []  # (process, read end of its pipe)
    try:
        for block in blocks[1:]:
            recv_end, send_end = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_child, args=(fn, block, cpu, send_end))
            child.start()  # flushes the caller's stdout and stderr first
            send_end.close()
            children.append((child, recv_end))
        results = [fn(it) for it in blocks[0]]
        for child, recv_end in children:
            results += _join(child, recv_end)
        return results
    finally:
        for child, recv_end in children:
            child.kill()  # does nothing to a child already joined
            recv_end.close()
            child.join()
            child.close()


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


def _current_cpu() -> int | None:
    """The CPU the calling thread runs on; None where libc cannot tell."""
    try:
        getcpu = ctypes.CDLL(None).sched_getcpu
    except (OSError, AttributeError):
        return None
    getcpu.argtypes, getcpu.restype = [], ctypes.c_int
    cpu = getcpu()
    return cpu if cpu >= 0 else None


def _child(fn, block, cpu: int | None, conn) -> None:
    """Compute ``block`` and send the outcome down ``conn``, off the caller's
    ``cpu``: where the kernel does not balance load across CPUs (a cpuset
    with sched_load_balance 0), a forked child often stays on its parent's
    CPU, both at half speed."""
    others = os.sched_getaffinity(0) - {cpu}
    if others:
        os.sched_setaffinity(0, others)
    try:
        conn.send((True, [fn(it) for it in block], None))
    except BaseException as exc:
        conn.send((False, _portable(exc), traceback.format_exc()))


def _portable(exc: BaseException) -> bytes | None:
    """The pickled exception, or None when it does not survive a round trip."""
    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)
        return blob
    except Exception:
        return None


def _join(child, conn) -> list:
    """The results of ``child``, received before it is joined (it may be
    waiting to send them); it has exited before anything is raised."""
    try:
        ok, value, tb = conn.recv()
    except (EOFError, OSError):  # the pipe closed before a whole message came
        ok = None
    child.join()
    if ok is None:
        raise RuntimeError(f"pmap worker {child.pid} died (exit status {child.exitcode}) "
                           "without a result")
    if ok:
        return value
    if value is None:
        raise RuntimeError(f"pmap worker {child.pid} raised an exception that cannot be sent "
                           f"back:\n{tb}")
    exc = pickle.loads(value)
    if hasattr(exc, "add_note"):  # Python >= 3.11
        exc.add_note(f"raised in pmap worker {child.pid}:\n{tb}")
    raise exc
