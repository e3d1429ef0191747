"""Independent brute-force oracles used by the test suite.

Everything here is deliberately written from first principles (hand-built
difference stencils, exhaustive/coordinate minimization) and does not reuse
the library's solver or gradient code paths.  The exception is the taped
reference at the end: the unrolled solvers recorded node by node from the
autodiff primitives, the reference for the solvers' hand-written reverse
sweeps.
"""

from __future__ import annotations

import numpy as np

from tvmap import autodiff as ad
from tvmap.network import net_forward_taped
from tvmap.solvers import pd3o_step_params, pdhg_step_params
from tvmap.tensors import grad_norm_exact


def _difference_rows(shape):
    """Hand-enumerated forward-difference pairs (src, dst, direction) for an
    image of shape (nt, nx, ny); trailing-boundary rows are omitted (zero)."""
    nt, nx, ny = shape

    def flat(t, i, j):
        return (t * nx + i) * ny + j

    rows = []
    for t in range(nt):
        for i in range(nx):
            for j in range(ny):
                if i + 1 < nx:
                    rows.append((flat(t, i, j), flat(t, i + 1, j), 0, (t, i, j)))
                if j + 1 < ny:
                    rows.append((flat(t, i, j), flat(t, i, j + 1), 1, (t, i, j)))
                if nt > 1 and t + 1 < nt:
                    rows.append((flat(t, i, j), flat(t + 1, i, j), 2, (t, i, j)))
    return rows


def rof_denoise_oracle(z: np.ndarray, lam, sweeps: int = 20000, tol: float = 1e-13):
    """Global minimizer of 0.5*|x - z|^2 + sum lam_i |(Dx)_i| by projected
    coordinate ascent on the box-constrained dual quadratic.

    ``lam`` is a scalar or an array of shape (q,) + z.shape.  Returns the
    primal solution x* = z - D^T q*.
    """
    shape = z.shape
    rows = _difference_rows(shape)
    zf = z.ravel().astype(np.float64)
    n = zf.size
    if np.isscalar(lam):
        lam_arr = np.full((3,) + shape, float(lam))
    else:
        lam_arr = np.asarray(lam, dtype=np.float64)
        if lam_arr.shape[0] == 2:  # static: pad a dummy temporal channel
            lam_arr = np.concatenate([lam_arr, lam_arr[:1]], axis=0)
    bounds = np.array([lam_arr[(d,) + zidx] for (_, _, d, zidx) in rows])
    q = np.zeros(len(rows))
    r = np.zeros(n)  # r = D^T q, maintained incrementally
    dz = np.array([zf[b] - zf[a] for (a, b, _, _) in rows])
    for _ in range(sweeps):
        delta_max = 0.0
        for k, (a, b, _, _) in enumerate(rows):
            # d_k = -e_a + e_b, |d_k|^2 = 2
            grad_k = dz[k] - (r[b] - r[a])
            q_new = min(max(q[k] + grad_k / 2.0, -bounds[k]), bounds[k])
            step = q_new - q[k]
            if step != 0.0:
                r[a] -= step
                r[b] += step
                q[k] = q_new
                delta_max = max(delta_max, abs(step))
        if delta_max <= tol:
            break
    return (zf - r).reshape(shape)


def golden_min(f, lo: float, hi: float, iters: int = 200) -> float:
    """Golden-section minimizer of a unimodal scalar function."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def quad_vertex_min(f, pts=(-1.0, 0.0, 1.0)) -> float:
    """Minimizer of a quadratic scalar function from three samples."""
    a, b, c = pts
    fa, fb, fc = f(a), f(b), f(c)
    num = (b - a) ** 2 * (fb - fc) - (b - c) ** 2 * (fb - fa)
    den = (b - a) * (fb - fc) - (b - c) * (fb - fa)
    return b - 0.5 * num / den


def fd_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Dense central finite differences of a scalar function of an array."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return g


def taped_reconstruct_reference(tape, x0, z, A, weight_vars, net_cfg, mode, T, kl=None):
    """``training.reconstruct_taped`` with every solver iteration recorded
    node by node on the tape."""
    x0_var = tape.constant(np.ascontiguousarray(x0))
    chans = net_forward_taped(tape, x0_var, weight_vars, net_cfg)
    q_dirs = 3 if x0.shape[0] > 1 else 2
    lam = ad.expand_channels(chans, mode.channels, q_dirs)
    if kl is not None:
        return _taped_pd3o(tape, x0_var, z, A, lam, kl, T)
    return _taped_pdhg(tape, x0_var, z, A, lam, T)


def _taped_pdhg(tape, x0_var, z, A, lam, T):
    step = pdhg_step_params(A)
    sigma, tau, theta = step.sigma, step.tau, step.theta
    x = x0_var
    xbar = x0_var
    p = tape.constant(np.zeros_like(z))
    q = tape.constant(np.zeros_like(lam.value, dtype=x0_var.value.dtype))
    for _ in range(T):
        ax = ad.apply_forward(A, xbar)
        p = ad.l2_conj_step(p, ax, z, sigma)
        q = ad.box_clip_ad(ad.add_scaled(q, sigma, ad.grad_field(xbar)), lam)
        x_new = ad.add_scaled2(
            x, -tau, ad.apply_adjoint(A, p), -tau, ad.grad_field_adjoint(q)
        )
        xbar = ad.extrapolate(x_new, x, theta)
        x = x_new
    return x


def _taped_pd3o(tape, x0_var, z, A, lam, kl, T):
    grad_norm = grad_norm_exact(x0_var.value.shape)
    sigma, tau = pd3o_step_params(A, kl, grad_norm)
    mu, n0 = kl.mu, kl.n0
    exp_mz = np.exp(np.clip(-z * mu, -700.0, 700.0))

    def grad_h(p_var):
        # scale before the adjoint, matching the plain solver's arithmetic
        ap = ad.apply_forward(A, p_var)
        diff = ad.rsub_const(exp_mz, ad.exp_clamped_ad(ad.scale(ap, -mu)))
        return ad.apply_adjoint(A, ad.scale(diff, mu * n0))

    p = x0_var
    xbar = x0_var
    q = tape.constant(np.zeros_like(lam.value))
    gh = grad_h(p)
    for _ in range(T):
        q = ad.box_clip_ad(ad.add_scaled(q, sigma, ad.grad_field(xbar)), lam)
        p_new = ad.leaky_relu(
            ad.add_scaled2(p, -tau, gh, -tau, ad.grad_field_adjoint(q)), 0.0
        )
        gh_new = grad_h(p_new)
        xbar = ad.pd3o_combine(p_new, p, gh, gh_new, tau)
        p = p_new
        gh = gh_new
    return p
