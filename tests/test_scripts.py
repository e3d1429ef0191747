"""Smoke runs of the example scripts in ``scripts/`` at tiny sizes: each must
exit 0 and end with its summary line."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CASES = [
    ("denoising_study.py", ["--train-count", "1", "--epochs", "1", "--t-eval", "4"],
     r"total \d+s"),
    ("ct_study.py", ["--n", "16", "--angles", "10", "--bins", "23", "--T", "8"],
     r"total \d+s"),
]


@pytest.mark.parametrize("script, args, last_line", CASES, ids=[c[0] for c in CASES])
def test_script_runs(tmp_path, script, args, last_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(last_line, proc.stdout.strip().splitlines()[-1].strip())
