"""Dense image tensors and the discrete difference machinery on them.

Conventions used throughout the package:

* An image is a numpy array of dtype float64 or complex128 with shape
  ``(nt, nx, ny)``.  Static problems use ``nt = 1``.  Memory order is C
  (row-major), so the time axis is outermost.
* A gradient field stacks the directional forward differences into shape
  ``(q, nt, nx, ny)`` with direction order ``(x, y)`` for static images
  (``q = 2``) and ``(x, y, t)`` for dynamic ones (``q = 3``).
* Forward differences use a replicate (Neumann) boundary: the difference at
  the last index along a direction is zero.  With this choice the composition
  ``grad_adjoint(grad(x))`` is the free path-graph Laplacian per direction and
  the gradient operator norm satisfies ``|grad|^2 <= 4 q``.
* For complex images the real and imaginary parts are differenced
  independently but kept together as one complex component.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce

import numpy as np

REAL = np.float64
COMPLEX = np.complex128


class SharingMode(Enum):
    """How network output channels are shared across gradient directions."""

    XYT = "xyt"      # one channel used for every direction
    XY_T = "xy_t"    # one spatial channel (x and y), one temporal channel
    X_Y_T = "x_y_t"  # three channels, one per direction

    def direction_channels(self, q: int) -> tuple[int, ...]:
        """The channel that weights each of the ``q`` gradient directions."""
        return {SharingMode.XYT: (0,) * q, SharingMode.XY_T: (0, 0, 1),
                SharingMode.X_Y_T: (0, 1, 2)}[self]

    @property
    def channels(self) -> int:
        return len(set(self.direction_channels(3)))

    def __str__(self) -> str:
        return self.value

    def check_image(self, shape: tuple[int, ...]) -> None:
        """Raise unless the mode can weight images of ``shape``: the two
        temporal modes need a time direction, a dynamic image (nt > 1)."""
        if self is not SharingMode.XYT and ndirs(shape) != 3:
            raise ValueError(f"mode {self.value} needs a dynamic image (nt > 1)")


def ndirs(shape: tuple[int, ...]) -> int:
    """Number of difference directions for an image shape: 2 static, 3 dynamic."""
    return 3 if shape[0] > 1 else 2


def grad(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Forward differences of ``x`` per direction, zero at the trailing edge.

    Returns an array of shape ``(q,) + x.shape``; directions are ordered
    ``(x, y)`` or ``(x, y, t)``.  Given ``out`` (C-contiguous, of that
    shape, not overlapping ``x``), writes every entry of it, trailing edges
    included, and returns it.
    """
    q = ndirs(x.shape)
    x = np.ascontiguousarray(x)
    out = _checked_out(out, (q,) + x.shape, x.dtype)
    np.subtract(x[:, 1:, :], x[:, :-1, :], out=out[0, :, :-1, :])
    out[0, :, -1, :] = 0.0
    # the y direction as one contiguous pass, about twice as fast as numpy's
    # row-by-row loop; the edge zeros then overwrite its differences across
    # row ends
    flat = x.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=out[1].reshape(-1)[:-1])
    out[1, :, :, -1] = 0.0
    if q == 3:
        np.subtract(x[1:, :, :], x[:-1, :, :], out=out[2, :-1, :, :])
        out[2, -1, :, :] = 0.0
    return out


def grad_adjoint(g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exact adjoint of :func:`grad`: ``<grad(x), g> == <x, grad_adjoint(g)>``.

    Note this is the transpose, not the negative divergence; callers supply
    the sign they need.  Each direction subtracts its differences at their
    left end and adds them at their right end, starting from zero, with the
    first direction written straight into the result.  Given ``out``
    (C-contiguous, of shape ``g.shape[1:]``, not overlapping ``g``), writes
    every entry of it and returns it.
    """
    if g.ndim != 4:
        raise ValueError("gradient field must have shape (q, nt, nx, ny)")
    q = g.shape[0]
    if q != ndirs(g.shape[1:]):
        raise ValueError(f"field has {q} components, expected {ndirs(g.shape[1:])}")
    out = _checked_out(out, g.shape[1:], g.dtype)
    np.subtract(0.0, g[0, :, :-1, :], out=out[:, :-1, :])
    out[:, -1, :] = 0.0
    out[:, 1:, :] += g[0, :, :-1, :]
    g1 = g[1]
    if g1[:, :, -1].any():
        out[:, :, :-1] -= g1[:, :, :-1]
        out[:, :, 1:] += g1[:, :, :-1]
    else:
        # a zero trailing edge (as in every field grad writes) lets the y
        # direction run as one contiguous pass, about twice as fast: its
        # extra terms are those zeros, and no entry is -0 here for them to flip
        flat, g1 = out.reshape(-1), g1.reshape(-1)
        flat[:-1] -= g1[:-1]
        flat[1:] += g1[:-1]
    if q == 3:
        out[:-1, :, :] -= g[2, :-1, :, :]
        out[1:, :, :] += g[2, :-1, :, :]
    return out


def _checked_out(out, shape, dtype) -> np.ndarray:
    if out is None:
        return np.empty(shape, dtype=dtype)
    if out.shape != tuple(shape) or not out.flags.c_contiguous:
        raise ValueError(f"out must be C-contiguous with shape {tuple(shape)}, got {out.shape}")
    return out


def abs_parts(g: np.ndarray) -> np.ndarray:
    """Anisotropic magnitude of a (possibly complex) field: |Re| + |Im|."""
    if np.iscomplexobj(g):
        return np.abs(g.real) + np.abs(g.imag)
    return np.abs(g)


def weighted_tv(x: np.ndarray, lam) -> float:
    """Weighted anisotropic total variation ``sum_d sum_z lam_d(z) |grad_d x(z)|``.

    ``lam`` is a positive scalar or an array matching ``(q,) + x.shape``.
    Complex images contribute ``|Re| + |Im|`` per difference.
    """
    g = grad(x)
    lam = np.asarray(lam, dtype=REAL)
    if lam.ndim and lam.shape != g.shape:
        raise ValueError(f"weight shape {lam.shape} does not match field {g.shape}")
    return float(np.sum(lam * abs_parts(g)))


def expand_map(channels: np.ndarray, mode: SharingMode) -> np.ndarray:
    """Expand 1/2/3 network output channels to a q-component weight field.

    ``channels`` has shape ``(c, nt, nx, ny)``; direction ``d`` of the field
    is a copy of channel ``mode.direction_channels(q)[d]``: XYT copies the
    single channel to every direction, XY_T maps ``(a, b)`` to ``(a, a, b)``,
    X_Y_T passes three channels through.  The two temporal modes require a
    dynamic image (``nt > 1``).
    """
    channels = np.asarray(channels, dtype=REAL)
    if channels.ndim != 4:
        raise ValueError("channel stack must have shape (c, nt, nx, ny)")
    c = channels.shape[0]
    if c != mode.channels:
        raise ValueError(f"mode {mode.value} expects {mode.channels} channels, got {c}")
    mode.check_image(channels.shape[1:])
    return channels[list(mode.direction_channels(ndirs(channels.shape[1:])))]


def expand_map_adjoint(field: np.ndarray, mode: SharingMode) -> np.ndarray:
    """Adjoint of :func:`expand_map`: ``<expand_map(c), g> == <c, adjoint(g)>``.

    Sums the components of a ``(q, nt, nx, ny)`` field that share a channel,
    in direction order: XYT sums all of them, XY_T maps ``(a, b, c)`` to
    ``(a + b, c)``, X_Y_T passes the three through.
    """
    mode.check_image(field.shape[1:])
    table = mode.direction_channels(ndirs(field.shape[1:]))
    return np.stack([reduce(np.add, [field[d] for d, c in enumerate(table) if c == k])
                     for k in range(mode.channels)])


def constant_map(value: float, shape: tuple[int, int, int]) -> np.ndarray:
    """Uniform positive weight field for an image shape."""
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"weight must be finite and strictly positive, got {value}")
    return np.full((ndirs(shape),) + shape, float(value), dtype=REAL)


def grad_norm_exact(shape) -> float:
    """Exact operator norm of :func:`grad` on a grid.

    The per-direction difference operators commute on the product grid, so
    the squared norm is the sum of the 1-d free-Laplacian extremes
    ``4 sin^2((n - 1) pi / (2 n))`` over the axes.
    """
    total = 0.0
    for n in shape:
        if n > 1:
            total += 4.0 * np.sin((n - 1) * np.pi / (2 * n)) ** 2
    return float(np.sqrt(total))
