"""Output checks computed apart from tvmap.

The differences, their adjoint, the objectives and PSNR here are the
benchmark's own numpy code, so a fault in ``tvmap.tensors``,
``tvmap.prox`` or ``tvmap.metrics`` cannot hide itself by also bending the
check.  Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np


def _axes(shape) -> tuple[int, ...]:
    """Difference axes of an ``(nt, nx, ny)`` image in tvmap's direction
    order: x, y, and t for dynamic images."""
    return (1, 2) if shape[0] == 1 else (1, 2, 0)


def diffs(x: np.ndarray) -> np.ndarray:
    """Forward differences per direction, zero at the trailing edge."""
    out = []
    for a in _axes(x.shape):
        d = np.zeros_like(x)
        n = x.shape[a]
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[a] = slice(0, n - 1)
        hi[a] = slice(1, n)
        d[tuple(lo)] = x[tuple(hi)] - x[tuple(lo)]
        out.append(d)
    return np.stack(out)


def diffs_adjoint(g: np.ndarray) -> np.ndarray:
    """Transpose of :func:`diffs`: per direction ``[-g0, g0-g1, ..., g_{n-2}]``."""
    out = np.zeros(g.shape[1:], dtype=g.dtype)
    for gd, a in zip(g, _axes(g.shape[1:])):
        head = np.take(gd, np.arange(gd.shape[a] - 1), axis=a)
        front = [(0, 0)] * 3
        back = [(0, 0)] * 3
        front[a] = (1, 0)
        back[a] = (0, 1)
        out += np.pad(head, front) - np.pad(head, back)
    return out


def tv(x: np.ndarray, lam) -> float:
    return float(np.sum(lam * np.abs(diffs(x))))


def psnr(x: np.ndarray, ref: np.ndarray) -> float:
    err = math.sqrt(float(np.mean(np.abs(x - ref) ** 2)))
    return 20.0 * math.log10(float(np.max(np.abs(ref))) / err)


def mean_psnr(images, truths) -> float:
    return float(np.mean([psnr(x, ref) for x, ref in zip(images, truths)]))


def check_reported_psnr(reported: float, images, truths) -> list[str]:
    """The workload's ``psnr_db`` must equal the PSNR recomputed here."""
    own = mean_psnr(images, truths)
    if abs(own - reported) > 1e-9 * abs(own):
        return [f"reported PSNR {reported!r} != recomputed {own!r}"]
    return []


def denoise_gap(x: np.ndarray, q: np.ndarray, z: np.ndarray, lam: np.ndarray) -> float:
    """Relative duality gap of ``min_x 0.5|x - z|^2 + sum lam |D x|``.

    The dual of a box-feasible ``q`` (``|q| <= lam``) is
    ``<D^T q, z> - 0.5 |D^T q|^2``; weak duality makes the gap >= 0.
    """
    primal = 0.5 * float(np.sum((x - z) ** 2)) + tv(x, lam)
    dtq = diffs_adjoint(q)
    dual = float(np.sum(dtq * z)) - 0.5 * float(np.sum(dtq**2))
    return (primal - dual) / primal


def check_denoise_solve(x, q, z, lam, max_gap: float) -> list[str]:
    problems = []
    if q.shape != lam.shape or np.any(np.abs(q) > lam * (1 + 1e-12)):
        problems.append("dual iterate leaves the box |q| <= lam")
        return problems
    gap = denoise_gap(x, q, z, lam)
    if not -1e-12 <= gap <= max_gap:
        problems.append(f"relative duality gap {gap:.3e} outside [0, {max_gap:g}]")
    return problems


def kl_tv_objective(sino: np.ndarray, z: np.ndarray, mu: float, n0: float, x: np.ndarray,
                    lam: float) -> float:
    """Poisson KL of the log-count data (up to a constant) plus weighted TV,
    with ``sino`` the projection of ``x``."""
    kl = n0 * np.sum(np.exp(-mu * sino) - np.exp(-mu * z) * (np.log(n0) - mu * sino))
    return float(kl) + tv(x, lam)


def check_ct_recon(x, x_fbp, x_true, sino, sino_fbp, z, mu, n0, lam) -> list[str]:
    problems = []
    if np.min(x) < 0:
        problems.append(f"reconstruction has negative entries (min {np.min(x):.3e})")
    obj = kl_tv_objective(sino, z, mu, n0, x, lam)
    obj_fbp = kl_tv_objective(sino_fbp, z, mu, n0, x_fbp, lam)
    if not obj < obj_fbp:
        problems.append(f"KL+TV objective {obj:.6e} not below FBP's {obj_fbp:.6e}")
    if not psnr(x, x_true) > psnr(x_fbp, x_true):
        problems.append(
            f"PSNR {psnr(x, x_true):.3f} dB not above FBP's {psnr(x_fbp, x_true):.3f} dB"
        )
    return problems
