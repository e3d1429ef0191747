"""Inversion-recovery relaxometry: series synthesis and per-pixel fitting.

The signal model is s(t) = M0 (1 - 2 exp(-t / T1)) with complex M0.  Fitting
exploits that, for a fixed T1, the optimal complex M0 has the closed form
<b, x> / <b, b> with b the real model curve; the remaining 1-d search over
T1 runs on a log-spaced grid with golden-section refinement around the best
cell.  This differs from magnitude-based quasi-Newton fitting but the
noiseless fixed points coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensors import COMPLEX, REAL

PAPER_INVERSION_TIMES = (0.05, 0.1, 0.2, 0.35, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
FIT_GRID_SIZE = 64  # log-spaced T1 values fit_t1 scans before refining

# coefficients of the fixed quadratic phase surface used in synthesis
PHASE_POLY = (0.3, -0.2, 0.15, -0.1, 0.05)  # x, y, x^2, y^2, xy


@dataclass
class InversionSeries:
    times: np.ndarray          # strictly increasing, seconds
    images: np.ndarray         # complex, shape (n_times, nx, ny)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=REAL)
        self.images = np.asarray(self.images, dtype=COMPLEX)
        if self.times.ndim != 1 or self.times.size != self.images.shape[0]:
            raise ValueError("one image per inversion time required")
        if np.any(self.times <= 0) or np.any(np.diff(self.times) <= 0):
            raise ValueError("inversion times must be positive and increasing")


@dataclass
class T1Map:
    t1: np.ndarray             # seconds, shape (nx, ny)
    m0: np.ndarray             # complex, shape (nx, ny)
    degenerate: np.ndarray = field(default=None)  # bool mask of all-zero pixels

    def __post_init__(self):
        if self.degenerate is None:
            self.degenerate = np.zeros(self.t1.shape, dtype=bool)


def signal_model(m0, t1, t):
    """Inversion-recovery signal M0 (1 - 2 exp(-t / T1))."""
    t1 = np.asarray(t1, dtype=REAL)
    t = np.asarray(t, dtype=REAL)
    if np.any(t1 <= 0):
        raise ValueError("T1 must be positive")
    if np.any(t < 0):
        raise ValueError("inversion time must be nonnegative")
    return np.asarray(m0) * (1.0 - 2.0 * np.exp(-t / t1))


def synth_qmri_series(
    region_labels: np.ndarray,
    region_params: list[tuple[complex, float]],
    times=PAPER_INVERSION_TIMES,
) -> tuple[InversionSeries, T1Map]:
    """Piecewise-constant M0/T1 maps from integer region labels, evaluated at
    the inversion times, noiseless.

    A fixed low-amplitude quadratic phase surface modulates M0 so the
    synthetic data has spatially varying phase.
    """
    labels = np.asarray(region_labels)
    if labels.max() >= len(region_params):
        raise ValueError("missing parameters for some region labels")
    nx, ny = labels.shape
    m0_map = np.zeros((nx, ny), dtype=COMPLEX)
    t1_map = np.ones((nx, ny), dtype=REAL)
    for idx, (m0, t1) in enumerate(region_params):
        if t1 <= 0:
            raise ValueError("region T1 values must be positive")
        mask = labels == idx
        m0_map[mask] = m0
        t1_map[mask] = t1
    gx, gy = np.meshgrid(
        np.linspace(-1, 1, nx), np.linspace(-1, 1, ny), indexing="ij"
    )
    a, b, c, d, e = PHASE_POLY
    phase = a * gx + b * gy + c * gx**2 + d * gy**2 + e * gx * gy
    m0_map = m0_map * np.exp(1j * phase)

    times = np.asarray(times, dtype=REAL)
    images = np.empty((times.size,) + labels.shape, dtype=COMPLEX)
    for i, t in enumerate(times):
        images[i] = signal_model(m0_map, t1_map, t)
    return InversionSeries(times=times, images=images), T1Map(t1=t1_map, m0=m0_map)


def fit_t1(series: InversionSeries, t1_bounds: tuple[float, float] = (0.05, 6.0)) -> T1Map:
    """Per-pixel (T1, M0) regression on a complex inversion-recovery series.

    For each candidate T1 the complex M0 is closed-form; a log-spaced grid
    scan locates the best cell and 20 golden-section steps polish it.
    All-zero pixels are flagged degenerate and pinned to the lower bound.
    """
    if series.times.size < 3:
        raise ValueError("need at least three inversion times")
    lo, hi = t1_bounds
    if not (0 < lo < hi):
        raise ValueError("invalid T1 bounds")
    times = series.times
    n_t = times.size
    x = series.images.reshape(n_t, -1)
    n_pix = x.shape[1]

    def residual_at(t1_vec: np.ndarray):
        """Residual and best M0 for per-pixel T1 candidates (vectorized)."""
        b = 1.0 - 2.0 * np.exp(-times[:, None] / t1_vec[None, :])  # (n_t, n_pix)
        bb = np.sum(b * b, axis=0)
        m0 = np.sum(b * x, axis=0) / bb
        res = np.sum(np.abs(x - m0[None, :] * b) ** 2, axis=0)
        return res, m0

    grid = np.exp(np.linspace(np.log(lo), np.log(hi), FIT_GRID_SIZE))
    best_res = np.full(n_pix, np.inf)
    best_idx = np.zeros(n_pix, dtype=int)
    for j, t1 in enumerate(grid):
        res, _ = residual_at(np.full(n_pix, t1))
        better = res < best_res
        best_res[better] = res[better]
        best_idx[better] = j

    lo_idx = np.maximum(best_idx - 1, 0)
    hi_idx = np.minimum(best_idx + 1, FIT_GRID_SIZE - 1)
    a = grid[lo_idx]
    b_hi = grid[hi_idx]
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b_hi - inv_phi * (b_hi - a)
    d = a + inv_phi * (b_hi - a)
    fc, _ = residual_at(c)
    fd, _ = residual_at(d)
    for _ in range(20):
        take_left = fc < fd
        b_hi = np.where(take_left, d, b_hi)
        a = np.where(take_left, a, c)
        c_new = b_hi - inv_phi * (b_hi - a)
        d_new = a + inv_phi * (b_hi - a)
        fc_new, _ = residual_at(c_new)
        fd_new, _ = residual_at(d_new)
        c, d, fc, fd = c_new, d_new, fc_new, fd_new
    t1_hat = (a + b_hi) / 2.0
    final_res, m0_hat = residual_at(t1_hat)
    # keep the grid winner where refinement did not help
    grid_best = grid[best_idx]
    worse = final_res > best_res
    if np.any(worse):
        t1_hat = np.where(worse, grid_best, t1_hat)
        final_res, m0_hat = residual_at(t1_hat)

    zero_pix = np.all(x == 0, axis=0)
    t1_hat[zero_pix] = lo
    m0_hat[zero_pix] = 0.0
    shape = series.images.shape[1:]
    return T1Map(
        t1=t1_hat.reshape(shape),
        m0=m0_hat.reshape(shape),
        degenerate=zero_pix.reshape(shape),
    )


def concentric_region_labels(n: int, n_regions: int = 4) -> np.ndarray:
    """Concentric elliptical region labels 0..n_regions-1 (0 = background)."""
    gx, gy = np.meshgrid(np.linspace(-1, 1, n), np.linspace(-1, 1, n), indexing="ij")
    r = np.sqrt(gx**2 + 1.3 * gy**2)
    labels = np.zeros((n, n), dtype=int)
    radii = np.linspace(0.9, 0.25, n_regions - 1)
    for k, rad in enumerate(radii, start=1):
        labels[r <= rad] = k
    return labels
