"""Spans around calls into tvmap's public functions, recorded from outside
the package.

:class:`Tracer` replaces each traced function or method with a wrapper that
records ``(name, start, end, parent, note)``: ``parent`` is the index of the
enclosing span (or -1) and ``note`` the iteration count of a solver call
(else 0).  Functions imported by name into other tvmap modules
(``from .tensors import grad``) are replaced wherever they are bound, so a
call is seen whichever module makes it.  Spans stay in memory; :meth:`write`
saves them at the end of a run and :func:`layer_metrics` turns them into the
per-layer figures.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np
from scipy import sparse

from tvmap import autodiff, experiments, metrics, network, operators, prox, solvers, tensors, training

MIB = 1024.0 * 1024.0

# (owner, attribute, span name); owners are modules or classes.
TRACED = [
    (tensors, "grad", "tensors.grad"),
    (tensors, "grad_adjoint", "tensors.grad_adjoint"),
    (prox, "box_clip", "prox.box_clip"),
    (prox, "l2_conjugate_prox", "prox.l2_conjugate_prox"),
    (prox, "kl_grad_sino", "prox.kl_grad_sino"),
    (solvers, "pdhg_solve", "solvers.pdhg_solve"),
    (solvers, "pd3o_solve_ct", "solvers.pd3o_solve_ct"),
    (solvers, "solve_problem", "solvers.solve_problem"),
    (solvers, "grid_search_scalar", "solvers.grid_search_scalar"),
    (network, "net_forward_taped", "network.net_forward_taped"),
    (training, "train", "training.train"),
    (training, "evaluate", "training.evaluate"),
    (training, "reconstruct", "training.reconstruct"),
    (training, "loss_taped", "training.loss_taped"),
    (training, "adam_step", "training.adam_step"),
    (operators, "fbp", "operators.fbp"),
    (operators.RadonOp, "__init__", "operators.RadonOp.__init__"),
    (operators.RadonOp, "forward", "operators.RadonOp.forward"),
    (operators.RadonOp, "adjoint", "operators.RadonOp.adjoint"),
    (operators.IdentityOp, "forward", "operators.IdentityOp.forward"),
    (operators.IdentityOp, "adjoint", "operators.IdentityOp.adjoint"),
    (experiments, "_build_item", "experiments.build_item"),
    (metrics, "ssim", "metrics.ssim"),
]
MODULES = [autodiff, experiments, metrics, network, operators, prox, solvers, tensors, training]
SOLVER_SPANS = ("solvers.pdhg_solve", "solvers.pd3o_solve_ct")


class Tracer:
    """In-memory span recorder; :meth:`install` patches tvmap, :meth:`remove`
    puts every original back."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, note]
        self.tape_nodes: list[int] = []
        self.tape_bytes: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        solver = name in SOLVER_SPANS

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if solver:
                    spans[idx][4] = result.iterations
                return result
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        return traced

    def _replace(self, original, wrapper) -> None:
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Patch every traced name; one that no longer exists is skipped, and
        its figures read 0."""
        for owner, attr, name in TRACED:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self.span(name, original)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._replace(original, wrapper)
        self._install_autodiff()

    def _install_autodiff(self) -> None:
        conv_fwd = self.span("autodiff.conv", autodiff.conv)

        def conv(x, w, b):
            out = conv_fwd(x, w, b)
            node = out.tape.nodes[out.idx]
            node.vjp = self.span("autodiff.conv_vjp", node.vjp)
            return out

        self._replace(autodiff.conv, conv)

        backward = self.span("autodiff.Tape.backward", autodiff.Tape.backward)

        def tape_backward(tape, loss):
            self.tape_nodes.append(len(tape.nodes))
            self.tape_bytes.append(tape.nbytes())
            return backward(tape, loss)

        self._patches.append((autodiff.Tape, "backward", autodiff.Tape.backward))
        autodiff.Tape.backward = tape_backward

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path, info: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"info": info, "fields": ["name", "start", "end", "parent", "note"],
                       "spans": self.spans}, fh)


def _durations(spans, name: str, parent: str | None = None) -> list[float]:
    return [
        s[2] - s[1]
        for s in spans
        if s[0] == name and (parent is None or (s[3] >= 0 and spans[s[3]][0] == parent))
    ]


def _per_parent(spans, name: str) -> list[float]:
    """Summed duration of the ``name`` spans under each parent span."""
    sums: dict[int, float] = {}
    for s in spans:
        if s[0] == name:
            sums[s[3]] = sums.get(s[3], 0.0) + s[2] - s[1]
    return list(sums.values())


def _median(values, scale: float = 1.0) -> float:
    return float(statistics.median(values)) * scale if values else 0.0


def layer_metrics(tracer: Tracer, radon: operators.RadonOp | None) -> dict:
    """Per-layer figures, each a ``(value, unit)`` pair, from the recorded
    spans.  A layer the workload never calls reads 0."""
    spans = tracer.spans
    out = {}

    def per_call(key, name, unit, scale, parent=None):
        out[key] = (_median(_durations(spans, name, parent), scale), unit)

    per_call("network.forward_ms", "network.net_forward_taped", "ms", 1e3)
    # conv spans sit directly under a network forward, conv VJPs under a backward
    out["autodiff.conv_fwd_ms"] = (_median(_per_parent(spans, "autodiff.conv"), 1e3), "ms")
    out["autodiff.conv_vjp_ms"] = (_median(_per_parent(spans, "autodiff.conv_vjp"), 1e3), "ms")
    per_call("autodiff.backward_ms", "autodiff.Tape.backward", "ms", 1e3)
    out["autodiff.tape_mb"] = (_median(tracer.tape_bytes, 1.0 / MIB), "MB")
    out["autodiff.tape_nodes"] = (_median(tracer.tape_nodes), "count")
    per_call("training.taped_forward_ms", "training.loss_taped", "ms", 1e3)
    per_call("training.adam_step_ms", "training.adam_step", "ms", 1e3)
    per_call("training.validation_ms", "training.reconstruct", "ms", 1e3, parent="training.train")

    for key, name in (("solvers.pdhg_iter_us", "solvers.pdhg_solve"),
                      ("solvers.pd3o_iter_us", "solvers.pd3o_solve_ct")):
        per_iter = [(s[2] - s[1]) / s[4] for s in spans if s[0] == name and s[4]]
        out[key] = (_median(per_iter, 1e6), "us")

    per_call("tensors.grad_us", "tensors.grad", "us", 1e6)
    per_call("tensors.grad_adjoint_us", "tensors.grad_adjoint", "us", 1e6)
    per_call("prox.box_clip_us", "prox.box_clip", "us", 1e6)
    per_call("prox.l2_conj_us", "prox.l2_conjugate_prox", "us", 1e6)
    per_call("prox.kl_grad_sino_us", "prox.kl_grad_sino", "us", 1e6)

    solves = sum(1 for s in spans if s[0] in SOLVER_SPANS)

    def calls_per_recon(names) -> float:
        calls = sum(
            1 for s in spans if s[0] in names and s[3] >= 0 and spans[s[3]][0] in SOLVER_SPANS
        )
        return calls / solves if solves else 0.0

    out["tensors.grad_calls_per_recon"] = (calls_per_recon({"tensors.grad"}), "count")
    out["operators.forward_calls_per_recon"] = (
        calls_per_recon({"operators.RadonOp.forward", "operators.IdentityOp.forward"}), "count")
    out["operators.adjoint_calls_per_recon"] = (
        calls_per_recon({"operators.RadonOp.adjoint", "operators.IdentityOp.adjoint"}), "count")

    per_call("operators.radon_build_s", "operators.RadonOp.__init__", "s", 1.0)
    matrix_bytes = 0
    if radon is not None:  # every sparse matrix the operator holds
        for mat in vars(radon).values():
            if sparse.issparse(mat):
                matrix_bytes += sum(
                    a.nbytes for a in vars(mat).values() if isinstance(a, np.ndarray)
                )
    out["operators.radon_matrix_mb"] = (matrix_bytes / MIB, "MB")
    per_call("operators.radon_forward_us", "operators.RadonOp.forward", "us", 1e6)
    per_call("operators.radon_adjoint_us", "operators.RadonOp.adjoint", "us", 1e6)
    per_call("operators.fbp_ms", "operators.fbp", "ms", 1e3)
    per_call("experiments.build_item_ms", "experiments.build_item", "ms", 1e3)
    per_call("metrics.ssim_ms", "metrics.ssim", "ms", 1e3)
    return out

