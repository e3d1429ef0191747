#!/usr/bin/env python3
"""Run one tvmap benchmark workload in this process and report its metrics.

    python3 benchmark/run.py --workload ct_lowdose --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; tvmap is imported from ``src/``.
Progress goes to stderr.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A failed output check prints ``"correct": false`` and exits with code 1.
See README.md in this directory for the workloads and metric definitions.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import ctypes.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS/OpenMP thread: fewer than the 2 cores of the reference machine,
# and steadier than OpenBLAS's default (see README.md).  Set before numpy loads.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

# glibc malloc options (malloc.h): keep freed memory in the heap.
M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4
KEEP_BYTES = 1 << 30

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("denoise_train", "gridsearch_stretch", "ct_lowdose")


def pin_allocator() -> str:
    """Make glibc malloc keep freed memory instead of handing it back to the
    kernel, so a freed array's pages are reused rather than faulted in again.
    Under the default dynamic thresholds the page faults of one
    ``training.train`` call varied fourfold from call to call and process to
    process, and with them a tenth to almost half of its time (README.md)."""
    name = ctypes.util.find_library("c")
    try:
        mallopt = ctypes.CDLL(name).mallopt
    except (OSError, AttributeError, TypeError):
        return "default (no glibc mallopt)"
    if mallopt(M_MMAP_MAX, 0) == 1 and mallopt(M_TRIM_THRESHOLD, KEEP_BYTES) == 1:
        return "glibc, no mmap, no trim"
    return "default (mallopt refused)"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure whole rounds for about this long (at least one round)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: minute inputs for the benchmark's own smoke tests")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def run_rounds(wl, seconds: float) -> list:
    """Whole rounds, stopping where the run ends closest to ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        rounds.append(wl.round())
        now = time.perf_counter()
        if now - start + 0.5 * (now - t) >= seconds:
            return rounds


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds, setup_s: float) -> dict:
    fit_s = [d for r in rounds for d in r.fit_s]
    recon_s = [d for r in rounds for d in r.recon_s]
    return {
        "setup_s": metric(setup_s, "s"),
        "train_items_per_s": metric(rounds[0].fit_items / statistics.median(fit_s), "items/s"),
        "recon_per_s": metric(1.0 / statistics.median(recon_s), "recon/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "psnr_db": metric(rounds[-1].psnr_db, "dB"),
    }


def traced_run(wl, args) -> tuple[list, dict]:
    """A traced set-up, then rounds alternating untraced and traced until
    ``--seconds`` have passed; per-layer figures come from the traced rounds,
    the tracing overhead from both kinds.  The spans go to ``results/``."""
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.remove()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append(wl.round())
        tracer.install()
        try:
            traced.append(wl.round())
        finally:
            tracer.remove()
    layers = spans.layer_metrics(tracer, wl.radon)
    ratio = statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in plain)
    layers["trace.overhead_pct"] = (100.0 * (ratio - 1.0), "%")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace_{args.workload}_seed{args.seed}.json"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "scale": args.scale,
                        "threads": THREADS, "traced_rounds": len(traced)})
    log(f"spans: {len(tracer.spans)} written to {path}")
    return plain + traced, {k: metric(v, u) for k, (v, u) in layers.items()}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "tvmap" / "__init__.py").is_file():
        log(f"error: no tvmap sources under {src}; run from a tvmap source checkout")
        return 2
    allocator = pin_allocator()
    sys.path.insert(0, str(src))
    import workloads

    import_s = time.perf_counter() - T_START
    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    builds = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl.setup()
        builds.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(builds)
    log(f"{args.workload} seed {args.seed}: imports {import_s:.3f}s, set-ups "
        f"{', '.join(f'{b:.3f}s' for b in builds)}, BLAS/OpenMP threads {THREADS}, "
        f"allocator {allocator}")

    if args.trace:
        rounds, out_metrics = traced_run(wl, args)
    else:
        rounds = run_rounds(wl, args.seconds)
        out_metrics = end_to_end(rounds, setup_s)
    log("op durations: " + json.dumps({
        "fit_s": [d for r in rounds for d in r.fit_s],
        "recon_s": [d for r in rounds for d in r.recon_s],
    }))

    problems = wl.check(rounds[-1].psnr_db)
    if len({r.psnr_db for r in rounds}) != 1:
        problems.append(f"rounds disagree on PSNR: {[r.psnr_db for r in rounds]}")
    for p in problems:
        log(f"check failed: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": 0,
        "metrics": out_metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
