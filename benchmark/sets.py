#!/usr/bin/env python3
"""Run sets of benchmark runs and summarise their spread.

    python3 benchmark/sets.py --workloads ct_lowdose --seeds 1-10 --seconds 30 --label a

Each run is one ``benchmark/run.py`` process with another seed, run one
after another.  Results go to ``benchmark/results/set_<label>.json``; the
summary gives, per workload and end-to-end metric, the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, plus the share of failed operations.  ``--compare``
adds the change of each median against an earlier set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    t = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ops = [ln for ln in proc.stderr.splitlines() if ln.startswith("op durations: ")]
    result.update(workload=workload, seed=seed, wall_s=wall,
                  op_durations=json.loads(ops[-1][len("op durations: "):]) if ops else None)
    return result


def summarise(runs: list[dict]) -> dict:
    out = {}
    for wl in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == wl]
        rows = {}
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in mine]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
        out[wl] = {
            "runs": len(mine),
            "failed_share": [r["failed"] / r["attempted"] for r in mine],
            "correct": all(r["correct"] for r in mine),
            "max_wall_s": max(r["wall_s"] for r in mine),
            "metrics": rows,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--compare", help="label of an earlier set to compare medians with")
    args = ap.parse_args(argv)
    runs = []
    for wl in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            runs.append(run_once(wl, seed, args.seconds))
            m = runs[-1]["metrics"]
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in m.items()), flush=True)
    summary = summarise(runs)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"set_{args.label}.json").write_text(
        json.dumps({"runs": runs, "summary": summary}, indent=1))
    earlier = None
    if args.compare:
        earlier = json.loads((RESULTS / f"set_{args.compare}.json").read_text())["summary"]
    for wl, s in summary.items():
        print(f"\n{wl}: {s['runs']} runs, correct {s['correct']}, longest run "
              f"{s['max_wall_s']:.1f}s, failed share {sorted(set(s['failed_share']))}")
        for name, row in s["metrics"].items():
            line = (f"  {name:18s} median {row['median']:.5g}  q1 {row['q1']:.5g}  "
                    f"q3 {row['q3']:.5g}  spread {100 * row['spread']:.2f}%")
            if earlier and wl in earlier:
                base = earlier[wl]["metrics"][name]["median"]
                line += f"  vs {args.compare} {100 * (row['median'] / base - 1):+.2f}%"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
