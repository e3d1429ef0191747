"""The benchmark's own tests: tiny-size smoke runs of every workload, plain and
traced, printed metric names against BENCHMARK.json, and output checks that
must reject corrupted outputs.

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tvmap.tensors import grad, grad_adjoint  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmark" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_prints_the_spec_metrics(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, float) and math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_workloads_match_spec():
    assert sorted(workloads.WORKLOADS) == sorted(NAMES) == sorted(run.WORKLOAD_NAMES)
    assert SPEC["command"][:2] == ["python3", "benchmark/run.py"]
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench(NAMES[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("shape", [(1, 5, 4), (3, 4, 6)])
def test_own_differences_are_adjoint_and_match_tvmap(shape):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(shape)
    g = rng.standard_normal((3 if shape[0] > 1 else 2,) + shape)
    assert np.vdot(checks.diffs(x), g) == pytest.approx(np.vdot(x, checks.diffs_adjoint(g)))
    np.testing.assert_array_equal(checks.diffs(x), grad(x))
    np.testing.assert_allclose(checks.diffs_adjoint(g), grad_adjoint(g), atol=1e-12)


def _ran(name: str):
    wl = workloads.WORKLOADS[name](3, "tiny")
    wl.setup()
    rnd = wl.round()
    assert wl.check(rnd.psnr_db) == []
    return wl, rnd


def test_gap_check_rejects_a_corrupted_solve():
    wl, rnd = _ran("gridsearch_stretch")
    rng = np.random.default_rng(0)
    wl.reports[0].image = wl.reports[0].image + rng.normal(0.0, 0.05, wl.reports[0].image.shape)
    assert any("duality gap" in p for p in wl.check(rnd.psnr_db))


def test_ct_check_rejects_a_corrupted_solve():
    wl, rnd = _ran("ct_lowdose")
    wl.reports[0].image = wl.test_items[0].x0.copy()  # FBP in place of the solve
    problems = wl.check(rnd.psnr_db)
    assert any("negative" in p for p in problems)
    assert any("not below FBP" in p for p in problems)


def test_denoise_check_rejects_worse_weights_and_a_wrong_psnr():
    wl, rnd = _ran("denoise_train")
    worse = wl.best.copy()
    worse.biases[-1] = worse.biases[-1] + 6.0  # far too much smoothing
    wl.best = worse
    problems = wl.check(rnd.psnr_db)
    assert any("validation MSE rose" in p for p in problems)
    assert any("reported PSNR" in p for p in problems)
