"""Proximal maps and fidelity derivatives shared by both solvers.

``box_clip`` is the dual prox of the weighted l1 term (a pointwise projection
onto [-lam, lam], applied to real and imaginary parts separately for complex
inputs), ``box_clip_code`` and ``box_clip_vjp`` record and reverse it for
training, ``l2_conjugate_prox`` the dual step of the squared-L2 fidelity, and
the ``kl_*`` functions evaluate the log-transformed Poisson fidelity, its
sinogram-space gradient factor and a Lipschitz bound for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


EXP_CLAMP = 700.0


@dataclass
class KlParams:
    """Photon statistics of the log-transformed count measurement."""

    mu: float
    n0: float

    def __post_init__(self):
        if self.mu <= 0 or self.n0 <= 0:
            raise ValueError("mu and n0 must be positive")


@dataclass
class ClampDiag:
    """Counts how often the exponential overflow guard engaged."""

    events: int = 0
    entries: int = 0


def box_clip(q: np.ndarray, lam, out: np.ndarray | None = None,
             neg_lam=None) -> np.ndarray:
    """Entrywise projection of ``q`` onto the box [-lam, lam].

    Complex inputs are projected per real component, consistent with the
    anisotropic |Re| + |Im| form of the penalty.  ``neg_lam``, if given,
    must equal ``-lam``; a caller clipping many times computes it once.
    Given ``out`` (shaped and typed like ``q``; it may be ``q`` itself),
    writes the projection into it and returns it.
    """
    lam = np.asarray(lam)
    if lam.ndim and lam.shape != q.shape:
        raise ValueError(f"bound shape {lam.shape} != field shape {q.shape}")
    if neg_lam is None:
        neg_lam = -lam
    if not np.iscomplexobj(q):
        return _clip(q, lam, neg_lam, out)
    if out is None:
        return _clip(q.real, lam, neg_lam) + 1j * _clip(q.imag, lam, neg_lam)
    _clip(q.real, lam, neg_lam, out.real)
    _clip(q.imag, lam, neg_lam, out.imag)
    return out


def _clip(u: np.ndarray, lam, neg_lam, out: np.ndarray | None = None) -> np.ndarray:
    # np.clip(u, neg_lam, lam), byte for byte when lam > 0 (signed zeros and
    # NaNs included); two two-operand ufuncs took a third of clip's time on
    # a 3x8x32x32 field
    out = np.minimum(u, lam, out=out)
    return np.maximum(out, neg_lam, out=out)


def _clip_code(u: np.ndarray, lam, neg_lam) -> np.ndarray:
    return np.subtract(u > lam, u < neg_lam, dtype=np.int8)


def box_clip_code(u: np.ndarray, lam, neg_lam=None) -> np.ndarray:
    """Which side of the box [-lam, lam] each entry of ``u`` left it by: the
    int8 ``sign(u) [|u| > lam]``, so boundary entries count as inside.
    Complex inputs get one code per real component, stacked (re, im).
    ``neg_lam``, if given, must equal ``-lam``, as in :func:`box_clip`."""
    if neg_lam is None:
        neg_lam = -np.asarray(lam)
    if np.iscomplexobj(u):
        return np.stack([_clip_code(u.real, lam, neg_lam), _clip_code(u.imag, lam, neg_lam)])
    return _clip_code(u, lam, neg_lam)


def box_clip_vjp(code: np.ndarray, g: np.ndarray,
                 out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Reverse step of :func:`box_clip` from its :func:`box_clip_code`: the
    gradient ``g`` at the output passes to the input inside the box and to
    the bound, with the code's sign, outside it.  Returns (input, bound)
    gradients.  Given ``out``, a real buffer shaped like the bound, the
    bound gradient goes into ``out`` and the input gradient over ``g``."""
    if np.iscomplexobj(g):
        g_lam = np.add(code[0] * g.real, code[1] * g.imag, out=out)
        g_in = np.where(code[0] == 0, g.real, 0.0) + 1j * np.where(code[1] == 0, g.imag, 0.0)
        if out is None:
            return g_in, g_lam
        g[...] = g_in
        return g, g_lam
    g_lam = np.multiply(code, g, out=out)
    if out is None:
        return np.where(code == 0, g, 0.0), g_lam
    np.copyto(g, 0.0, where=code != 0)
    return g, g_lam


def l2_conjugate_prox(p: np.ndarray, ax: np.ndarray, z: np.ndarray, sigma: float,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Dual update of the squared-L2 fidelity: (p + sigma (ax - z)) / (1 + sigma).

    Given ``out`` (overlapping none of ``p``, ``ax`` and ``z``), writes the
    update into it and returns it."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if p.shape != ax.shape or ax.shape != z.shape:
        raise ValueError("p, ax and z must share one shape")
    out = np.subtract(ax, z, out=out)
    out *= sigma
    out += p
    out /= 1.0 + sigma
    return out


def nonneg_prox(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Projection onto the nonnegative orthant, into ``out`` if given."""
    return np.maximum(p, 0.0, out=out)


def exp_clamped(a: np.ndarray, diag: ClampDiag | None = None) -> np.ndarray:
    """exp with arguments clamped to +-700 (the float64 overflow margin).

    Clamping is flagged on ``diag`` when provided, never silent in solvers.
    """
    clipped = np.clip(a, -EXP_CLAMP, EXP_CLAMP)
    if diag is not None:
        hits = int(np.count_nonzero(clipped != a))
        if hits:
            diag.events += 1
            diag.entries += hits
    return np.exp(clipped)


def kl_value(ax: np.ndarray, z: np.ndarray, params: KlParams, diag: ClampDiag | None = None) -> float:
    """Kullback-Leibler fidelity of a sinogram against log-count data."""
    if ax.shape != z.shape:
        raise ValueError("sinogram shapes differ")
    mu, n0 = params.mu, params.n0
    val = exp_clamped(-ax * mu, diag) * n0 - exp_clamped(-z * mu, diag) * n0 * (
        -ax * mu + np.log(n0)
    )
    return float(np.sum(val))


def kl_grad_sino(ax: np.ndarray, exp_mz: np.ndarray, params: KlParams, diag: ClampDiag | None = None) -> np.ndarray:
    """Sinogram-space gradient factor mu n0 (exp(-z mu) - exp(-ax mu)); the
    data term ``exp_mz = exp_clamped(-z * mu)`` is fixed for a solve, so the
    caller computes it once.  The image-space gradient is its adjoint."""
    mu, n0 = params.mu, params.n0
    return mu * n0 * (exp_mz - exp_clamped(-ax * mu, diag))


def kl_lipschitz(A, params: KlParams) -> float:
    """Upper bound |A|^2 mu^2 n0 on the Lipschitz constant of the KL gradient,
    valid on the nonnegative orthant the solver is constrained to."""
    return A.norm() ** 2 * params.mu**2 * params.n0
