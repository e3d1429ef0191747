"""The names the benchmark's tracer, ``benchmark/spans.py``, patches must exist
in the package, and every solve must reach the per-fidelity driver whose
span and iteration count give ``solvers.pdhg_iter_us``, ``pd3o_iter_us`` and
the ``*_calls_per_recon`` figures.  The tracer skips a name it cannot find,
so a rename would otherwise only turn a figure into 0."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from tvmap import autodiff, solvers
from tvmap.operators import IdentityOp
from tvmap.prox import KlParams
from tvmap.solvers import Problem

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"

# traced names the package no longer defines: the L2 conjugate prox moved to
# tests/oracles.py when PDHG took its data dual scaled by sigma in place
GONE = {"prox.l2_conjugate_prox"}


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


def test_traced_names_exist():
    hooks = spans.TRACED + [(autodiff, "conv", "autodiff.conv"),
                            (autodiff.Tape, "backward", "autodiff.Tape.backward")]
    assert {name for owner, attr, name in hooks if not hasattr(owner, attr)} == GONE


@pytest.mark.parametrize("case", ["pdhg", "pd3o", "trail"])
def test_every_solve_records_one_driver_span(rng, case):
    T = 7
    z = np.abs(rng.standard_normal((2, 6, 6))) + 0.5
    kl = KlParams(mu=1.0, n0=50.0) if case == "pd3o" else None
    prob = Problem(A=IdentityOp(z.shape), z=z, x0=z, kl=kl)
    tracer = spans.Tracer()
    tracer.install()
    try:
        solvers.solve_problem(prob, 0.1, T, trail=[] if case == "trail" else None)
    finally:
        tracer.remove()
    driver = "solvers.pd3o_solve_ct" if case == "pd3o" else "solvers.pdhg_solve"
    assert [(s[0], s[4]) for s in tracer.spans if s[0] in spans.SOLVER_SPANS] == [(driver, T)]
