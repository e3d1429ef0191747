"""Synthetic phantoms and measurement noise for reproducible experiments.

All generators draw from ``numpy.random.default_rng`` seeded explicitly by
the caller, so identical seeds give identical data.
"""

from __future__ import annotations

import numpy as np

from .prox import KlParams
from .tensors import REAL


def moving_disks(
    nx: int, ny: int, nt: int, n_disks: int = 3, seed: int = 0
) -> np.ndarray:
    """Piecewise-constant video of disks on linear trajectories.

    Trajectories are clipped so every disk stays fully inside the frame for
    all time points; later disks paint over earlier ones.
    """
    rng = np.random.default_rng(seed)
    video = np.zeros((nt, nx, ny), dtype=REAL)
    gx, gy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    for _ in range(n_disks):
        r = rng.uniform(0.09, 0.2) * min(nx, ny)
        value = rng.uniform(0.3, 1.0)
        cx0 = rng.uniform(r, nx - 1 - r)
        cy0 = rng.uniform(r, ny - 1 - r)
        vx = rng.uniform(-1.5, 1.5)
        vy = rng.uniform(-1.5, 1.5)
        for t in range(nt):
            cx = float(np.clip(cx0 + vx * t, r, nx - 1 - r))
            cy = float(np.clip(cy0 + vy * t, r, ny - 1 - r))
            mask = (gx - cx) ** 2 + (gy - cy) ** 2 <= r * r
            video[t][mask] = value
    return video


def ellipse_ct(n: int, seed: int = 0) -> np.ndarray:
    """Static phantom of a body ellipse and three random inner ellipses,
    values in [0, 1]."""
    rng = np.random.default_rng(seed)
    gx, gy = np.meshgrid(np.linspace(-1, 1, n), np.linspace(-1, 1, n), indexing="ij")
    img = np.zeros((n, n), dtype=REAL)
    # body outline
    img[(gx / 0.85) ** 2 + (gy / 0.7) ** 2 <= 1.0] = 0.35
    for _ in range(3):
        ax_ = rng.uniform(0.12, 0.45)
        ay = rng.uniform(0.12, 0.45)
        cx = rng.uniform(-0.35, 0.35)
        cy = rng.uniform(-0.3, 0.3)
        phi = rng.uniform(0, np.pi)
        value = rng.uniform(-0.25, 0.45)
        rx = (gx - cx) * np.cos(phi) + (gy - cy) * np.sin(phi)
        ry = -(gx - cx) * np.sin(phi) + (gy - cy) * np.cos(phi)
        img[(rx / ax_) ** 2 + (ry / ay) ** 2 <= 1.0] += value
    return np.clip(img, 0.0, 1.0)[None]


def add_gaussian(x: np.ndarray, sigma: float, seed: int, complex_noise: bool = False):
    """Additive Gaussian noise; in the complex case the variance splits
    evenly between real and imaginary parts (total sigma^2 per sample)."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return x.copy()
    rng = np.random.default_rng(seed)
    if complex_noise:
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        return x + sigma * noise / np.sqrt(2.0)
    return x + sigma * rng.standard_normal(x.shape)


def ct_poisson_log(A, x_true: np.ndarray, kl: KlParams, seed: int) -> np.ndarray:
    """Log-transformed Poisson counts: sample N ~ Pois(n0 exp(-Ax mu)),
    clamp empty bins to 0.1 counts, return -log(N / n0) / mu."""
    rng = np.random.default_rng(seed)
    ax = A.forward(x_true)
    counts = rng.poisson(kl.n0 * np.exp(-ax * kl.mu)).astype(REAL)
    counts = np.maximum(counts, 0.1)
    return -np.log(counts / kl.n0) / kl.mu
