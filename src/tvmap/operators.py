"""Forward models: identity, multi-coil Cartesian MRI encoder, parallel-beam
Radon transform, plus operator norms (analytic for the identity and the MRI
encoder, power iteration otherwise), FBP and the CG initializer.

Every operator exposes ``forward``/``adjoint`` pairs that satisfy
``<A x, y> == <x, A^H y>`` to round-off; the test suite enforces this with
randomized probes on each concrete implementation.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import ConvergenceError
from .tensors import COMPLEX, REAL

OP_NORM_TOL, OP_NORM_MAX_ITER = 1e-6, 20000  # op_norm's accuracy and budget


def _vdot(a: np.ndarray, b: np.ndarray) -> complex:
    return complex(np.vdot(a.ravel(), b.ravel()))


class LinearOperator:
    """A forward/adjoint pair with declared domain and codomain shapes."""

    domain_shape: tuple[int, ...]
    codomain_shape: tuple[int, ...]

    def __init__(self, domain_shape, codomain_shape):
        self.domain_shape = tuple(domain_shape)
        self.codomain_shape = tuple(codomain_shape)
        self._norm_estimate: float | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def norm(self) -> float:
        """Cached operator-norm estimate, see :func:`op_norm`."""
        if self._norm_estimate is None:
            self._norm_estimate = op_norm(self)
        return self._norm_estimate


class IdentityOp(LinearOperator):
    """The identity on images.  ``forward`` and ``adjoint`` return their
    argument itself, not a copy: callers must not write into the result."""

    def __init__(self, shape):
        super().__init__(shape, shape)
        self._norm_estimate = 1.0

    def forward(self, x):
        return x

    def adjoint(self, y):
        return y


class MriEncoder(LinearOperator):
    """Multi-coil Cartesian encoder: mask the orthonormal 2-D FFT per coil.

    ``coil_maps`` has shape (n_c, nx, ny) with unit sum-of-squares per pixel,
    ``masks`` is a boolean or 0/1 array of shape (nt, nx, ny) marking sampled
    k-space positions per frame.  Codomain arrays keep the full grid with
    zeros at unsampled positions.  Together these give |A| <= 1 (orthonormal
    FFT, 0/1 masks, unit coil sum of squares), which is the norm bound used,
    with no power iteration.
    """

    def __init__(self, coil_maps: np.ndarray, masks: np.ndarray):
        coil_maps = np.ascontiguousarray(coil_maps, dtype=COMPLEX)
        masks = np.ascontiguousarray(masks).astype(REAL)
        if coil_maps.ndim != 3 or masks.ndim != 3:
            raise ValueError("coil maps need shape (nc, nx, ny), masks (nt, nx, ny)")
        if coil_maps.shape[1:] != masks.shape[1:]:
            raise ValueError(
                f"coil grid {coil_maps.shape[1:]} != mask grid {masks.shape[1:]}"
            )
        if not np.isin(masks, (0.0, 1.0)).all():
            raise ValueError("mask entries must be 0 or 1")
        if not masks.any(axis=(1, 2)).all():
            raise ValueError("every frame needs at least one sampled position")
        sos = np.sum(np.abs(coil_maps) ** 2, axis=0)
        if not np.allclose(sos, 1.0, atol=1e-8):
            raise ValueError("coil sensitivities must be normalized per pixel")
        n_t = masks.shape[0]
        super().__init__(
            (n_t,) + coil_maps.shape[1:], (coil_maps.shape[0],) + masks.shape
        )
        self.coil_maps = coil_maps
        self.masks = masks
        self._norm_estimate = 1.0

    def forward(self, x):
        if x.shape != self.domain_shape:
            raise ValueError(f"image shape {x.shape} != {self.domain_shape}")
        coil_imgs = self.coil_maps[:, None] * x[None]
        k = np.fft.fft2(coil_imgs, axes=(-2, -1), norm="ortho")
        return k * self.masks[None]

    def adjoint(self, z):
        if z.shape != self.codomain_shape:
            raise ValueError(f"k-space shape {z.shape} != {self.codomain_shape}")
        imgs = np.fft.ifft2(z * self.masks[None], axes=(-2, -1), norm="ortho")
        return np.sum(np.conj(self.coil_maps)[:, None] * imgs, axis=0)


class RadonOp(LinearOperator):
    """Discrete parallel-beam Radon transform on an n-by-n grid, at
    ``n_angles`` equispaced angles k pi / n_angles.

    Rays are sampled at half-pixel steps with bilinear interpolation and
    weighted by the step length; the adjoint is the exact transpose of that
    discretization.  Detector bins are equidistant and span the grid diagonal.

    Only one angle per symmetry orbit is assembled.  The grid has the
    symmetries of the square: the rows of angle pi - theta, bins reversed,
    are theta's rows on the image mirrored in y; for an even count the rows
    of theta + pi/2 are theta's rows on the image turned a quarter, and the
    rows of pi/2 - theta, bins reversed, theta's rows on the image
    anti-transposed.  So for n angles the orbit of angle k is {k, n - k}
    (odd n) or {k, k + n/2, n - k, n/2 - k} (even n), smaller for k = 0 and
    k = n/4.  The rows of k = 0 .. n/2 (odd n) or 0 .. n/4 (even n) are
    stored as CSR, with their transpose as a second CSR for the adjoint.
    ``forward`` gathers the image once per map, applies the rows and places
    them; ``adjoint`` is its exact transpose: it gathers the sinogram per map
    (a zero for rows the map does not place), applies the stored transpose
    and gathers back by the inverse permutation.

    At 64x64 with 90 angles and 95 bins the 23 stored angles hold 5.4 MiB
    (the full matrix and its transpose: 21.2 MiB) and assemble in 0.07 s
    (full: 0.24 s); at 128x128 with 180 angles and 190 bins, 43.3 MiB
    (169.3) in 0.58 s (2.08), on one core of a 2-vCPU x86 host.
    """

    def __init__(self, n: int, n_angles: int, n_bins: int, side: float = 1.0):
        super().__init__((1, n, n), (n_angles, n_bins))
        self.n = n
        self.angles = np.arange(n_angles) * (np.pi / n_angles)
        self.n_bins = n_bins
        self.side = float(side)
        self.pixel = self.side / n
        self.diag = self.side * np.sqrt(2.0)
        self.bin_spacing = self.diag / n_bins
        # each map: its pixel gather and its action on the ray direction
        # k pi / n_angles, k taken modulo 2 n_angles, as k -> shift + sign * k
        pix = np.arange(n * n).reshape(n, n)
        maps = [(pix, 0, 1), (pix[:, ::-1], 0, -1)]  # identity, mirror
        even = n_angles % 2 == 0
        if even:  # quarter turn, anti-transpose
            maps += [(np.rot90(pix, -1), n_angles // 2, 1),
                     (pix[::-1, ::-1].T, 3 * n_angles // 2, -1)]
        reps = np.arange(n_angles // (4 if even else 2) + 1)
        bins, n_rows = np.arange(n_bins), n_angles * n_bins
        placed = np.zeros(n_angles, dtype=bool)
        self._maps = []  # (gather, inverse gather, target row or n_rows per stored row)
        for gather, shift, sign in maps:
            d = (shift + sign * reps) % (2 * n_angles)
            angle = d % n_angles  # a direction past pi is its angle with bins reversed
            flip = (d >= n_angles)[:, None]
            target = angle[:, None] * n_bins + np.where(flip, bins[::-1], bins)
            target[placed[angle]] = n_rows
            placed[angle] = True
            if (target < n_rows).any():
                gather = gather.ravel()
                self._maps.append((gather, np.argsort(gather), target.ravel()))
        self._rows = self._build_rows(self.angles[reps])
        self._rows_t = self._rows.T.tocsr()

    def _build_rows(self, angles: np.ndarray) -> sparse.csr_matrix:
        n, h = self.n, self.pixel
        step = h / 2.0
        n_samples = int(np.ceil(self.diag / step))
        u = -self.diag / 2.0 + (np.arange(n_samples) + 0.5) * step
        t = -self.diag / 2.0 + (np.arange(self.n_bins) + 0.5) * self.bin_spacing
        rows = np.broadcast_to(np.arange(self.n_bins)[:, None], (self.n_bins, n_samples))
        blocks = []
        for theta in angles:
            c, s = np.cos(theta), np.sin(theta)
            # sample coordinates for all (bin, sample) pairs of this angle
            px = t[:, None] * c - u[None, :] * s
            py = t[:, None] * s + u[None, :] * c
            fx = (px + self.side / 2.0) / h - 0.5
            fy = (py + self.side / 2.0) / h - 0.5
            ix = np.floor(fx).astype(np.int64)
            iy = np.floor(fy).astype(np.int64)
            wx = fx - ix
            wy = fy - iy
            data, rr, cc = [], [], []
            for dx, dy, w in (
                (0, 0, (1 - wx) * (1 - wy)),
                (1, 0, wx * (1 - wy)),
                (0, 1, (1 - wx) * wy),
                (1, 1, wx * wy),
            ):
                gx, gy = ix + dx, iy + dy
                ok = (gx >= 0) & (gx < n) & (gy >= 0) & (gy < n) & (w > 0)
                data.append((w[ok] * step).ravel())
                rr.append(rows[ok].ravel())
                cc.append((gx[ok] * n + gy[ok]).ravel())
            # this angle's rows as one canonical block (the constructor sorts
            # and sums duplicates); rows of different angles are disjoint, so
            # the stacked blocks are the rows of all the given angles
            blocks.append(sparse.csr_matrix(
                (np.concatenate(data), (np.concatenate(rr), np.concatenate(cc))),
                shape=(self.n_bins, n * n),
            ))
        return sparse.vstack(blocks, format="csr")

    def forward(self, x):
        if x.shape != self.domain_shape:
            raise ValueError(f"image shape {x.shape} != {self.domain_shape}")
        x = np.asarray(x, dtype=REAL).ravel()
        s = np.empty(self.angles.size * self.n_bins + 1)  # the last slot takes unplaced rows
        for gather, _, target in self._maps:
            s[target] = self._rows @ x[gather]
        return s[:-1].reshape(self.codomain_shape)

    def adjoint(self, s):
        if s.shape != self.codomain_shape:
            raise ValueError(f"sinogram shape {s.shape} != {self.codomain_shape}")
        s = np.append(np.asarray(s, dtype=REAL).ravel(), 0.0)
        x = sum((self._rows_t @ s[target])[inverse] for _, inverse, target in self._maps)
        return x.reshape(self.domain_shape)


def fbp(op: RadonOp, sino: np.ndarray) -> np.ndarray:
    """Filtered backprojection baseline: band-limited ramp filter with Hann
    apodization in the detector frequency domain, backprojection via the
    exact adjoint.

    The ramp is the spectrum of the discrete ramp kernel (rather than |freq|
    sampled directly), which avoids a DC bias in the reconstruction.  The
    scale ``pi / n_angles * bin_spacing / pixel_area`` converts the adjoint
    smear into the continuous backprojection integral.
    """
    sino = np.asarray(sino, dtype=REAL)
    n_angles, n_bins = sino.shape
    pad = 1 << max(6, int(np.ceil(np.log2(2 * n_bins))))
    db = op.bin_spacing
    # discrete ramp kernel: 1/(4 db^2) at 0, -1/(pi n db)^2 at odd offsets
    idx = np.fft.fftfreq(pad) * pad
    kernel = np.zeros(pad)
    kernel[0] = 1.0 / (4.0 * db * db)
    odd = np.abs(idx.astype(np.int64)) % 2 == 1
    kernel[odd] = -1.0 / (np.pi * idx[odd] * db) ** 2
    ramp = np.real(np.fft.fft(kernel)) * db
    freqs = np.fft.fftfreq(pad, d=db)
    nyquist = 0.5 / db
    hann = 0.5 * (1.0 + np.cos(np.pi * freqs / nyquist))
    filt = ramp * hann
    spect = np.fft.fft(sino, n=pad, axis=1) * filt[None, :]
    filtered = np.real(np.fft.ifft(spect, axis=1))[:, :n_bins]
    back = op.adjoint(np.ascontiguousarray(filtered))
    scale = (np.pi / n_angles) * op.bin_spacing / (op.pixel**2)
    return back * scale


def op_norm(op: LinearOperator) -> float:
    """Largest singular value of ``op`` by power iteration on ``A^H A``.

    Deterministic fixed-seed start; stops when the symmetric-eigenvalue
    residual bound certifies relative accuracy ``OP_NORM_TOL``.  Raises
    :class:`ConvergenceError` (carrying the last estimate) if
    ``OP_NORM_MAX_ITER`` iterations run out first.
    """
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(op.domain_shape)
    nv = np.linalg.norm(v.ravel())
    if nv == 0:
        raise ValueError("operator domain is empty")
    v = v / nv
    est = 0.0
    for _ in range(OP_NORM_MAX_ITER):
        w = op.adjoint(op.forward(v))
        est = float(np.real(_vdot(v, w)))
        if est <= 0:
            raise ValueError("operator appears to be zero")
        resid = np.linalg.norm((w - est * v).ravel())
        if resid <= OP_NORM_TOL * est:
            return float(np.sqrt(est))
        v = w / np.linalg.norm(w.ravel())
    raise ConvergenceError(
        f"power iteration did not reach tol={OP_NORM_TOL} in {OP_NORM_MAX_ITER} iterations",
        estimate=float(np.sqrt(est)),
    )


def cg_normal_init(A: LinearOperator, z: np.ndarray, iters: int) -> np.ndarray:
    """Conjugate gradients on the normal equations ``A^H A x = A^H z`` from 0.

    ``iters == 0`` returns the plain adjoint reconstruction ``A^H z``.  Early
    stopping (small ``iters``) is the intended use on noisy data.
    """
    if iters < 0:
        raise ValueError("iters must be >= 0")
    b = A.adjoint(z)
    if iters == 0:
        return b
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(np.real(_vdot(r, r)))
    for _ in range(iters):
        if rs == 0.0:
            break
        ap = A.adjoint(A.forward(p))
        denom = float(np.real(_vdot(p, ap)))
        # breakdown guard: a vanishing Rayleigh quotient means the search
        # direction sits in the normal operator's numerical null space
        if denom <= 1e-12 * float(np.real(_vdot(p, p))):
            break
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(np.real(_vdot(r, r)))
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def make_cartesian_mask(
    n_x: int,
    n_y: int,
    n_t: int,
    R: float,
    center_fraction: float = 0.08,
    seed: int = 0,
) -> np.ndarray:
    """Per-frame ky-line undersampling masks of shape (nt, nx, ny).

    The low-frequency band (``center_fraction`` of the ky lines around DC in
    unshifted FFT order) is always sampled; the remaining lines are drawn
    uniformly at random per frame so the total is about ``n_y / R``.
    """
    if R < 1:
        raise ValueError("acceleration R must be >= 1")
    rng = np.random.default_rng(seed)
    masks = np.zeros((n_t, n_x, n_y), dtype=REAL)
    n_center = max(1, int(round(center_fraction * n_y)))
    center = (np.arange(n_center) - n_center // 2) % n_y
    target = max(n_center, int(round(n_y / R)))
    rest = np.setdiff1d(np.arange(n_y), center)
    for t in range(n_t):
        lines = set(center.tolist())
        extra = target - len(lines)
        if extra > 0 and rest.size:
            lines |= set(rng.choice(rest, size=min(extra, rest.size), replace=False).tolist())
        masks[t, :, sorted(lines)] = 1.0
    return masks


def synth_coil_maps(n_x: int, n_y: int, n_c: int) -> np.ndarray:
    """Synthetic coil sensitivities: Gaussian bumps centered on the image
    border with a gentle linear phase, normalized so sum_k |C_k|^2 = 1."""
    if n_c < 1:
        raise ValueError("need at least one coil")
    gx, gy = np.meshgrid(np.arange(n_x), np.arange(n_y), indexing="ij")
    gx = (gx + 0.5) / n_x - 0.5
    gy = (gy + 0.5) / n_y - 0.5
    width = 0.45
    maps = np.empty((n_c, n_x, n_y), dtype=COMPLEX)
    for k in range(n_c):
        phi = 2.0 * np.pi * k / n_c
        cx, cy = 0.55 * np.cos(phi), 0.55 * np.sin(phi)
        mag = np.exp(-((gx - cx) ** 2 + (gy - cy) ** 2) / (2 * width**2))
        phase = np.pi * (np.cos(phi) * gx + np.sin(phi) * gy)
        maps[k] = mag * np.exp(1j * phase)
    sos = np.sqrt(np.sum(np.abs(maps) ** 2, axis=0))
    return maps / sos[None]
