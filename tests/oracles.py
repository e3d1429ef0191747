"""Independent brute-force oracles used by the test suite.

Everything here is deliberately written from first principles (hand-built
difference stencils, exhaustive/coordinate minimization) and does not reuse
the library's solver or gradient code paths.  The exception is the taped
reference at the end: the elementwise nodes the tests build scalar losses
from (``add``, ``mul``, ``reduce_sum``), the solver primitives as tape nodes, the
unrolled solvers recorded node by node from them (the reference for the
solvers' hand-written reverse sweeps), and the finite-difference check of
taped gradients.  ``GradOp`` wraps the difference stack as an operator for
the operator tests, ``ZeroHPd3o`` is the PD3O iteration with its smooth
term set to zero, which reduces it to PDHG with a nonnegativity prox, and
``zero_weights`` gives the all-zero network, whose weight map is the
constant scale * log 2 (the zero-weight reduction).
``l2_conjugate_prox`` is the textbook dual step of the squared-L2 fidelity,
the reference for the PDHG step's update of its dual held divided by sigma,
and ``np_clip_box`` the box projection written with ``np.clip``.
``radon_matrix_summed`` keeps the Radon system matrix's earlier assembly,
one full-size block per angle summed pairwise, as the reference for the
operator's action, which stores one angle per symmetry orbit.
``estimate_weight_field`` is the plain network-to-field map,
and ``weight_field_taped`` records it with the channel expansion as a node
of its own, the reference for training's one node from the channels to the
reconstruction.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from tvmap import autodiff as ad
from tvmap.autodiff import Tape, Var, _needs, _same_tape
from tvmap.network import NetWeights, UNetConfig, init_weights, net_forward, net_forward_taped
from tvmap.operators import LinearOperator
from tvmap.prox import EXP_CLAMP
from tvmap.solvers import _Pd3o, pd3o_step_params, pdhg_step_params, stacked_norm_bound
from tvmap.tensors import SharingMode, expand_map, expand_map_adjoint, grad_norm_exact, ndirs
from tvmap.tensors import grad as grad_field_fn
from tvmap.tensors import grad_adjoint as grad_adjoint_fn
from tvmap.training import _checked_field


def zero_weights(cfg: UNetConfig) -> NetWeights:
    """All-zero kernels and biases in the layout of :func:`init_weights`."""
    w = init_weights(cfg, seed=0)
    return NetWeights([np.zeros_like(k) for k in w.kernels], [np.zeros_like(b) for b in w.biases])


class GradOp(LinearOperator):
    """The difference stack as an operator: a sample operator for the adjoint
    and power-iteration tests (the solvers use the exact norm,
    :func:`tvmap.tensors.grad_norm_exact`)."""

    def __init__(self, shape):
        super().__init__(shape, (ndirs(tuple(shape)),) + tuple(shape))

    def forward(self, x):
        return grad_field_fn(x)

    def adjoint(self, g):
        return grad_adjoint_fn(g)


class ZeroHPd3o(_Pd3o):
    """:class:`tvmap.solvers._Pd3o` with h = 0: the KL gradient is zero, so
    one step is a PDHG step with the nonnegativity prox (Yan 2018).  Build it
    with explicit step sizes; the ``kl`` it is given then only fills the
    unused data term."""

    def _grad_h(self, p, curvature=False):
        return np.zeros_like(p), None


def radon_matrix_summed(op) -> sparse.csr_matrix:
    """The system matrix of :class:`tvmap.operators.RadonOp` ``op`` as it was
    first assembled: one COO block of the full matrix shape per angle, summed
    with ``sum(blocks)`` (time quadratic in the angle count)."""
    n, h = op.n, op.pixel
    step = h / 2.0
    n_samples = int(np.ceil(op.diag / step))
    u = -op.diag / 2.0 + (np.arange(n_samples) + 0.5) * step
    t = -op.diag / 2.0 + (np.arange(op.n_bins) + 0.5) * op.bin_spacing
    blocks = []
    for j, theta in enumerate(op.angles):
        c, s = np.cos(theta), np.sin(theta)
        # sample coordinates for all (bin, sample) pairs of this angle
        px = t[:, None] * c - u[None, :] * s
        py = t[:, None] * s + u[None, :] * c
        fx = (px + op.side / 2.0) / h - 0.5
        fy = (py + op.side / 2.0) / h - 0.5
        ix = np.floor(fx).astype(np.int64)
        iy = np.floor(fy).astype(np.int64)
        wx = fx - ix
        wy = fy - iy
        rows = np.broadcast_to(
            (j * op.n_bins + np.arange(op.n_bins))[:, None], fx.shape
        )
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
        blocks.append(
            sparse.coo_matrix(
                (np.concatenate(data), (np.concatenate(rr), np.concatenate(cc))),
                shape=(op.angles.size * op.n_bins, n * n),
            )
        )
    mat = sparse.csr_matrix(sum(blocks))
    mat.sum_duplicates()
    return mat


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


def add(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    return tape._emit(
        a.value + b.value, (a.idx, b.idx), lambda u: (u, u), _needs(a, b)
    )


def sub(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    return tape._emit(
        a.value - b.value, (a.idx, b.idx), lambda u: (u, -u), _needs(a, b)
    )


def mul(a: Var, b: Var) -> Var:
    """Elementwise product; complex factors backpropagate conjugated."""
    tape = _same_tape(a, b)
    av, bv = a.value, b.value

    def vjp(u):
        ga = np.conj(bv) * u if np.iscomplexobj(bv) else bv * u
        gb = np.conj(av) * u if np.iscomplexobj(av) else av * u
        return ga, gb

    return tape._emit(av * bv, (a.idx, b.idx), vjp, _needs(a, b))


def reduce_sum(x: Var) -> Var:
    xv = x.value
    if np.iscomplexobj(xv):
        raise ValueError("reduce_sum is defined for real values only")
    return x.tape._emit(
        float(np.sum(xv)), (x.idx,), lambda u: (u * np.ones_like(xv),), x.requires_grad
    )


def add_scaled(a: Var, c: float, b: Var) -> Var:
    """a + c * b in one node (the dual pre-step of the solvers)."""
    tape = _same_tape(a, b)
    c = float(c)
    return tape._emit(
        a.value + c * b.value, (a.idx, b.idx), lambda u: (u, c * u), _needs(a, b)
    )


def add_scaled2(a: Var, c1: float, b1: Var, c2: float, b2: Var) -> Var:
    """a + c1 * b1 + c2 * b2 in one node (the primal descent step)."""
    tape = _same_tape(a, b1, b2)
    c1, c2 = float(c1), float(c2)
    value = a.value + c1 * b1.value + c2 * b2.value
    return tape._emit(
        value, (a.idx, b1.idx, b2.idx), lambda u: (u, c1 * u, c2 * u), _needs(a, b1, b2)
    )


def extrapolate(x_new: Var, x_old: Var, theta: float) -> Var:
    """x_new + theta (x_new - x_old), the over-relaxation step."""
    tape = _same_tape(x_new, x_old)
    theta = float(theta)
    value = x_new.value + theta * (x_new.value - x_old.value)
    return tape._emit(
        value,
        (x_new.idx, x_old.idx),
        lambda u: ((1.0 + theta) * u, -theta * u),
        _needs(x_new, x_old),
    )


def pd3o_combine(p_new: Var, p_old: Var, gh_old: Var, gh_new: Var, tau: float) -> Var:
    """2 p_new - p_old + tau gh_old - tau gh_new, the three-operator update."""
    tape = _same_tape(p_new, p_old, gh_old, gh_new)
    tau = float(tau)
    value = 2.0 * p_new.value - p_old.value + tau * gh_old.value - tau * gh_new.value
    return tape._emit(
        value,
        (p_new.idx, p_old.idx, gh_old.idx, gh_new.idx),
        lambda u: (2.0 * u, -u, tau * u, -tau * u),
        _needs(p_new, p_old, gh_old, gh_new),
    )


def apply_forward(A, x: Var) -> Var:
    """Record y = A x; the backward rule is the registered adjoint."""
    return x.tape._emit(
        A.forward(x.value), (x.idx,), lambda u: (A.adjoint(u),), x.requires_grad
    )


def apply_adjoint(A, y: Var) -> Var:
    return y.tape._emit(
        A.adjoint(y.value), (y.idx,), lambda u: (A.forward(u),), y.requires_grad
    )


def grad_field(x: Var) -> Var:
    return x.tape._emit(
        grad_field_fn(x.value), (x.idx,), lambda u: (grad_adjoint_fn(u),), x.requires_grad
    )


def grad_field_adjoint(q: Var) -> Var:
    return q.tape._emit(
        grad_adjoint_fn(q.value), (q.idx,), lambda u: (grad_field_fn(u),), q.requires_grad
    )


def box_clip_ad(q: Var, lam: Var) -> Var:
    """Projection onto [-lam, lam]; boundary entries count as interior for q
    and contribute sign(q) to the bound's gradient only outside the box."""
    tape = _same_tape(q, lam)
    qv, lv = q.value, lam.value

    if np.iscomplexobj(qv):
        value = np.minimum(np.maximum(qv.real, -lv), lv) + 1j * np.minimum(
            np.maximum(qv.imag, -lv), lv
        )

        def vjp(u):
            in_re = np.abs(qv.real) <= lv
            in_im = np.abs(qv.imag) <= lv
            gq = np.where(in_re, u.real, 0.0) + 1j * np.where(in_im, u.imag, 0.0)
            gl = np.where(in_re, 0.0, np.sign(qv.real) * u.real) + np.where(
                in_im, 0.0, np.sign(qv.imag) * u.imag
            )
            return gq, gl

    else:
        value = np.minimum(np.maximum(qv, -lv), lv)

        def vjp(u):
            inside = np.abs(qv) <= lv
            gq = np.where(inside, u, 0.0)
            gl = np.where(inside, 0.0, np.sign(qv) * u)
            return gq, gl

    return tape._emit(value, (q.idx, lam.idx), vjp, _needs(q, lam))


def div_const(a: Var, c: float) -> Var:
    """a / c for a constant c (the clip box lam / sigma of the scaled dual)."""
    c = float(c)
    return a.tape._emit(a.value / c, (a.idx,), lambda u: (u / c,), a.requires_grad)


def l2_conjugate_prox(p: np.ndarray, ax: np.ndarray, z: np.ndarray, sigma: float,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Dual update of the squared-L2 fidelity: (p + sigma (ax - z)) / (1 + sigma),
    the textbook form of the solver's step on the scaled dual s = p / sigma.

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


def np_clip_box(u: np.ndarray, lam) -> np.ndarray:
    """The projection onto [-lam, lam], per real part for complex ``u``,
    written with ``np.clip`` into a fresh array."""
    neg, out = -np.asarray(lam), np.empty_like(u)
    if not np.iscomplexobj(u):
        return np.clip(u, neg, lam, out=out)
    np.clip(u.real, neg, lam, out=out.real)
    np.clip(u.imag, neg, lam, out=out.imag)
    return out


def l2_dual_step_scaled(s: Var, ax: Var, z: np.ndarray, sigma: float) -> Var:
    """(s + ax - z) * (1 / (1 + sigma)), the PDHG step's update of the scaled
    data dual s = p / sigma; z is data, not differentiated."""
    tape = _same_tape(s, ax)
    c = 1.0 / (1.0 + float(sigma))
    value = (s.value + ax.value - z) * c
    return tape._emit(value, (s.idx, ax.idx), lambda u: (c * u, c * u), _needs(s, ax))


def l2_conj_step(p: Var, ax: Var, z: np.ndarray, sigma: float) -> Var:
    """(p + sigma (ax - z)) / (1 + sigma); z is data, not differentiated."""
    tape = _same_tape(p, ax)
    sigma = float(sigma)
    value = (p.value + sigma * (ax.value - z)) / (1.0 + sigma)
    s = 1.0 / (1.0 + sigma)
    return tape._emit(
        value, (p.idx, ax.idx), lambda u: (s * u, sigma * s * u), _needs(p, ax)
    )


def exp_clamped_ad(x: Var) -> Var:
    """exp with the +-700 overflow guard; clamped entries get zero gradient."""
    xv = x.value
    clipped = np.clip(xv, -EXP_CLAMP, EXP_CLAMP)
    value = np.exp(clipped)
    inside = np.abs(xv) <= EXP_CLAMP
    return x.tape._emit(
        value, (x.idx,), lambda u: (np.where(inside, value * u, 0.0),), x.requires_grad
    )


def rsub_const(c, x: Var) -> Var:
    """c - x for a constant c."""
    return x.tape._emit(c - x.value, (x.idx,), lambda u: (-u,), x.requires_grad)


def finite_diff_check(build, leaves, eps: float = 1e-6, trials: int = 20, seed: int = 0):
    """Compare reverse-mode gradients against central finite differences.

    ``build(tape, leaf_vars) -> scalar Var`` records the function under test;
    ``leaves`` is a list of real arrays.  ``trials`` coordinates are sampled
    at random and the maximum relative error
    |g_ad - g_fd| / max(|g_ad|, |g_fd|, 1e-8) is returned.

    Each coordinate is differenced at ``eps`` and ``10 eps`` and the better
    match counts: cancellation noise shrinks with the larger step and
    truncation error with the smaller one, while a genuinely wrong gradient
    fails at both.
    """
    leaves = [np.asarray(a, dtype=np.float64) for a in leaves]
    tape = Tape()
    leaf_vars = [tape.leaf(a.copy()) for a in leaves]
    loss = build(tape, leaf_vars)
    grads = tape.backward(loss)
    ad = [grads.get(v.idx, np.zeros_like(a)) for v, a in zip(leaf_vars, leaves)]

    def value_at(arrays) -> float:
        t = Tape()
        lv = [t.constant(a) for a in arrays]
        out = build(t, lv)
        return float(out.value)

    def fd_at(li: int, flat: int, h: float) -> float:
        plus = [a.copy() for a in leaves]
        minus = [a.copy() for a in leaves]
        plus[li].ravel()[flat] += h
        minus[li].ravel()[flat] -= h
        return (value_at(plus) - value_at(minus)) / (2 * h)

    rng = np.random.default_rng(seed)
    sizes = [a.size for a in leaves]
    total = sum(sizes)
    worst = 0.0
    for _ in range(trials):
        flat = int(rng.integers(total))
        li = 0
        while flat >= sizes[li]:
            flat -= sizes[li]
            li += 1
        g_ad = float(np.asarray(ad[li]).ravel()[flat])
        err = np.inf
        for h in (eps, 10 * eps):
            g_fd = fd_at(li, flat, h)
            err = min(err, abs(g_ad - g_fd) / max(abs(g_ad), abs(g_fd), 1e-8))
        worst = max(worst, err)
    return worst



def estimate_weight_field(
    x0: np.ndarray, weights: NetWeights, net_cfg: UNetConfig, mode: SharingMode
) -> np.ndarray:
    chans = net_forward(x0, weights, net_cfg)
    return _checked_field(expand_map(chans, mode))


def weight_field_taped(
    tape: ad.Tape, x0: np.ndarray, weight_vars, net_cfg: UNetConfig, mode: SharingMode
) -> ad.Var:
    """Record :func:`estimate_weight_field` on ``tape``, before its check:
    the network node by node and the channel expansion as one node."""
    chans = net_forward_taped(tape, x0, weight_vars, net_cfg)
    return tape._emit(expand_map(chans.value, mode), (chans.idx,),
                      lambda u: (expand_map_adjoint(u, mode),), chans.requires_grad)


def taped_reconstruct_reference(tape, x0, z, A, weight_vars, net_cfg, mode, T, kl=None):
    """``training.reconstruct_taped`` with the channel expansion as its own
    node (:func:`weight_field_taped`) and every solver iteration recorded
    node by node on the tape; the network is training's own."""
    x0_var = tape.constant(x0)
    lam = weight_field_taped(tape, x0, weight_vars, net_cfg, mode)
    if kl is not None:
        return _taped_pd3o(tape, x0_var, z, A, lam, kl, T)
    return _taped_pdhg(tape, x0_var, z, A, lam, T)


def _taped_pdhg(tape, x0_var, z, A, lam, T):
    # the solver's arithmetic op for op, on its duals s = p / sigma and
    # r = q / sigma clipped to lam / sigma
    sigma, tau = pdhg_step_params(stacked_norm_bound(A))
    bound = div_const(lam, sigma)
    x = x0_var
    xbar = x0_var
    s = tape.constant(np.zeros_like(z))
    r = tape.constant(np.zeros_like(lam.value, dtype=x0_var.value.dtype))
    for _ in range(T):
        s = l2_dual_step_scaled(s, apply_forward(A, xbar), z, sigma)
        r = box_clip_ad(add(grad_field(xbar), r), bound)
        w = ad.scale(add(grad_field_adjoint(r), apply_adjoint(A, s)), tau * sigma)
        x_new = sub(x, w)
        xbar = sub(x_new, w)
        x = x_new
    return x


def _taped_pd3o(tape, x0_var, z, A, lam, kl, T):
    grad_norm = grad_norm_exact(x0_var.value.shape)
    sigma, tau = pd3o_step_params(A, kl, grad_norm)
    mu, n0 = kl.mu, kl.n0
    exp_mz = np.exp(np.clip(-z * mu, -700.0, 700.0))

    def grad_h(p_var):
        # scale before the adjoint, matching the plain solver's arithmetic
        ap = apply_forward(A, p_var)
        diff = rsub_const(exp_mz, exp_clamped_ad(ad.scale(ap, -mu)))
        return apply_adjoint(A, ad.scale(diff, mu * n0))

    # the TV dual on the solver's scale, r = q / sigma clipped to lam / sigma
    bound = div_const(lam, sigma)
    p = x0_var
    xbar = x0_var
    r = tape.constant(np.zeros_like(lam.value))
    gh = grad_h(p)
    for _ in range(T):
        r = box_clip_ad(add(grad_field(xbar), r), bound)
        p_new = ad.leaky_relu(
            add_scaled2(p, -tau, gh, -(tau * sigma), grad_field_adjoint(r)), 0.0
        )
        gh_new = grad_h(p_new)
        xbar = pd3o_combine(p_new, p, gh, gh_new, tau)
        p = p_new
        gh = gh_new
    return p
