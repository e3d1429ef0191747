"""Proximal maps and fidelity derivatives shared by both solvers.

``box_clip`` is the dual prox of the weighted l1 term (a pointwise projection
onto [-lam, lam], applied to real and imaginary parts separately for complex
inputs), ``box_clip_code`` and ``box_clip_vjp`` record and reverse it for
training, and the ``kl_*`` functions evaluate the log-transformed Poisson
fidelity, its sinogram-space gradient factor and a Lipschitz bound for it.
The dual step of the squared-L2 fidelity is written into the PDHG step.

The clip kernels run in every solver iteration or its reverse, and require
the buffers the iteration allocates once per solve: outputs, the negated
bound and the reverse's mask.  The KL functions clamp their exponentials
and count every clamp on the solve's :class:`ClampDiag`, which they require.
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


def box_clip(q: np.ndarray, lam, out: np.ndarray, neg_lam) -> np.ndarray:
    """Entrywise projection of ``q`` onto the box [-lam, lam], written into
    ``out`` (shaped and typed like ``q``; it may be ``q`` itself), which is
    returned.  ``neg_lam`` must equal ``-lam``; the solver makes it once per
    solve.  Complex inputs are projected per real component, consistent with
    the anisotropic |Re| + |Im| form of the penalty.
    """
    lam = np.asarray(lam)
    if lam.ndim and lam.shape != q.shape:
        raise ValueError(f"bound shape {lam.shape} != field shape {q.shape}")
    if not np.iscomplexobj(q):
        return _clip(q, lam, neg_lam, out)
    _clip(q.real, lam, neg_lam, out.real)
    _clip(q.imag, lam, neg_lam, out.imag)
    return out


def _clip(u: np.ndarray, lam, neg_lam, out: np.ndarray) -> np.ndarray:
    # np.clip(u, neg_lam, lam), byte for byte when lam > 0 (signed zeros and
    # NaNs included); two two-operand ufuncs took a third of clip's time on
    # a 3x8x32x32 field
    np.minimum(u, lam, out=out)
    return np.maximum(out, neg_lam, out=out)


def _clip_code(u: np.ndarray, lam, neg_lam) -> np.ndarray:
    # subtracting the int8 views of the two masks gives the bytes of a
    # subtract with dtype=np.int8, without its casting loop
    return np.subtract(np.greater(u, lam).view(np.int8), np.less(u, neg_lam).view(np.int8))


def box_clip_code(u: np.ndarray, lam, neg_lam) -> np.ndarray:
    """Which side of the box [-lam, lam] each entry of ``u`` left it by: the
    int8 ``sign(u) [|u| > lam]``, so boundary entries count as inside.
    Complex inputs get one code per real component, as (re, im) pairs on a
    trailing axis of length 2, the layout of the array's float64 view.
    ``neg_lam`` must equal ``-lam``, as in :func:`box_clip`."""
    if np.iscomplexobj(u):
        return np.stack([_clip_code(u.real, lam, neg_lam), _clip_code(u.imag, lam, neg_lam)],
                        axis=-1)
    return _clip_code(u, lam, neg_lam)


def box_clip_vjp(code: np.ndarray, g: np.ndarray, out: np.ndarray,
                 keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reverse step of :func:`box_clip` from its :func:`box_clip_code`: the
    gradient ``g`` at the output passes to the input inside the box and to
    the bound, with the code's sign, outside it.  Returns (input, bound)
    gradients: the bound gradient goes into ``out``, a real buffer shaped
    like the bound, and the input gradient over ``g`` (C-contiguous if
    complex).  ``keep``, an int64 buffer shaped like ``code`` whose content
    is overwritten, holds the mask that zeroes ``g`` outside the box.  A
    complex ``g`` is masked as the real pairs of its float64 view, so each
    part keeps every bit inside the box."""
    if np.iscomplexobj(g):
        parts = g.view(np.float64).reshape(code.shape)  # (re, im) pairs
        g_lam = np.add(code[..., 0] * parts[..., 0], code[..., 1] * parts[..., 1], out=out)
    else:
        parts = g
        g_lam = np.multiply(code, g, out=out)
    # AND the bits of g with all ones inside the box and all zeros outside:
    # the bytes of np.copyto(g, 0.0, where=code != 0), signed zeros, infs
    # and NaNs included, in under a fifth of its time
    inside = np.equal(code, 0).view(np.int8)
    np.copyto(keep, np.negative(inside, out=inside))  # 0 or -1, sign-extended
    bits = parts.view(np.int64)
    np.bitwise_and(bits, keep, out=bits)
    return g, g_lam


def nonneg_prox(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Projection onto the nonnegative orthant, into ``out`` if given."""
    return np.maximum(p, 0.0, out=out)


def exp_clamped(a: np.ndarray, diag: ClampDiag) -> np.ndarray:
    """exp with arguments clamped to +-700 (the float64 overflow margin);
    every call that clamps counts on ``diag``, so no clamp is silent."""
    clipped = np.clip(a, -EXP_CLAMP, EXP_CLAMP)
    hits = int(np.count_nonzero(clipped != a))
    if hits:
        diag.events += 1
        diag.entries += hits
    return np.exp(clipped)


def kl_value(ax: np.ndarray, exp_mz: np.ndarray, params: KlParams, diag: ClampDiag) -> float:
    """KL fidelity of a sinogram against log-count data, whose term
    ``exp_mz = exp_clamped(-z * mu, diag)`` is fixed for a solve and so
    computed once by the caller, as for :func:`kl_grad_sino`; clamps of the
    sinogram's own exponential are counted on ``diag``."""
    if ax.shape != exp_mz.shape:
        raise ValueError("sinogram shapes differ")
    mu, n0 = params.mu, params.n0
    val = exp_clamped(-ax * mu, diag) * n0 - exp_mz * n0 * (-ax * mu + np.log(n0))
    return float(np.sum(val))


def kl_grad_sino(ax: np.ndarray, exp_mz: np.ndarray, params: KlParams,
                 diag: ClampDiag) -> tuple[np.ndarray, np.ndarray]:
    """Sinogram-space gradient factor mu n0 (exp(-z mu) - exp(-ax mu)) and
    the ``exp_clamped(-ax * mu, diag)`` it took, which the gradient's
    derivative reuses; the data term ``exp_mz = exp_clamped(-z * mu, diag)``
    is fixed for a solve, so the caller computes it once.  The image-space
    gradient is the factor's adjoint."""
    mu, n0 = params.mu, params.n0
    exp_m_ax = exp_clamped(-ax * mu, diag)
    return mu * n0 * (exp_mz - exp_m_ax), exp_m_ax


def kl_lipschitz(A, params: KlParams) -> float:
    """Upper bound |A|^2 mu^2 n0 on the Lipschitz constant of the KL gradient,
    valid on the nonnegative orthant the solver is constrained to."""
    return A.norm() ** 2 * params.mu**2 * params.n0
