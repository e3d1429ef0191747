"""Image quality metrics: PSNR, NRMSE and a uniform-window SSIM.

All metrics accept real or complex images; complex inputs are compared via
their magnitudes for SSIM and via complex differences for the L2 metrics.
The dynamic range is taken from the reference image (``max |ref|``) so that
phantoms of any scale compare fairly.
"""

from __future__ import annotations

import math

import numpy as np

SSIM_WINDOW = 7
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _check_shapes(x: np.ndarray, ref: np.ndarray) -> None:
    if x.shape != ref.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {ref.shape}")


def rmse(x: np.ndarray, ref: np.ndarray) -> float:
    _check_shapes(x, ref)
    return float(np.sqrt(np.mean(np.abs(x - ref) ** 2)))


def psnr(x: np.ndarray, ref: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB with peak ``max |ref|``.

    Identical inputs return ``inf`` (the exact-match sentinel).
    """
    _check_shapes(x, ref)
    err = rmse(x, ref)
    if err == 0.0:
        return math.inf
    peak = float(np.max(np.abs(ref)))
    return 20.0 * math.log10(peak / err)


def nrmse(x: np.ndarray, ref: np.ndarray) -> float:
    _check_shapes(x, ref)
    denom = float(np.linalg.norm(ref.ravel()))
    if denom == 0.0:
        raise ValueError("reference is all-zero")
    return float(np.linalg.norm((x - ref).ravel())) / denom


def _window_mean(frame: np.ndarray, w: int) -> np.ndarray:
    """Mean over all w-by-w windows fully inside the frame (valid positions)."""
    c = np.cumsum(np.cumsum(frame, axis=0), axis=1)
    c = np.pad(c, ((1, 0), (1, 0)))
    s = c[w:, w:] - c[:-w, w:] - c[w:, :-w] + c[:-w, :-w]
    return s / (w * w)


def ssim(x: np.ndarray, ref: np.ndarray) -> float:
    """Mean local SSIM of ``(nt, nx, ny)`` frames, 7x7 uniform window per
    frame, averaged over frames.

    Complex inputs are compared through their magnitudes.  Window statistics
    are taken on fully interior windows only, so frames must be at least
    7 pixels in each spatial direction.
    """
    _check_shapes(x, ref)
    if np.iscomplexobj(x) or np.iscomplexobj(ref):
        x = np.abs(x)
        ref = np.abs(ref)
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    w = SSIM_WINDOW
    if x.shape[1] < w or x.shape[2] < w:
        raise ValueError(f"frames must be at least {w}x{w} for SSIM")
    peak = float(np.max(np.abs(ref)))
    if peak == 0.0:
        peak = 1.0
    c1 = (SSIM_K1 * peak) ** 2
    c2 = (SSIM_K2 * peak) ** 2
    vals = []
    for a, b in zip(x, ref):
        mu_a = _window_mean(a, w)
        mu_b = _window_mean(b, w)
        var_a = _window_mean(a * a, w) - mu_a**2
        var_b = _window_mean(b * b, w) - mu_b**2
        cov = _window_mean(a * b, w) - mu_a * mu_b
        num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
        den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
        vals.append(np.mean(num / den))
    return float(np.mean(vals))
