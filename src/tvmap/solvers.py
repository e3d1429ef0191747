"""Primal-dual solvers with fixed weight fields, plus scalar grid-search
baselines.

Each solver's iteration is written once, as the ``step`` of :class:`_Pdhg`
and :class:`_Pd3o`, around the weighted-TV dual step both share
(:class:`_PrimalDual`, reversed by :class:`_TvAdjoint`).  Every solve starts
at :func:`solve_problem`, which picks the iteration by the problem's
fidelity, and runs in one driver, :func:`_run`: ``T`` steps with the weight
field held fixed, as evaluation runs them; the same steps with a ``trail``,
as training unrolls them; or steps until a relative-step tolerance, the
stand-in for the exact minimizer.  The driver checks the iterate for
finiteness every ``CHECK_EVERY`` steps and after the last one.  Both
solvers are bit-for-bit deterministic.

Buffers.  Each iteration allocates its state once (``image``, ``prev``,
``xbar``, the duals, the gradient-field scratch ``u``, the clip box
``bound`` and ``neg_bound``) and ``step`` writes every temporary into
those, through the kernels' output arguments: the new iterate goes into
the spent ``prev`` and the two swap, and ``xbar`` doubles as scratch once
read.  The duals are held divided by sigma, the TV dual q as ``r`` and the
PDHG data dual p as ``s``, with the clip box lam / sigma: the dual steps
then apply no step size, and the descent applies tau sigma once, which
spares six image-sized passes per PDHG step.  ``s`` is updated in place,
so PDHG holds one data dual.  Each in-place sequence performs the
floating-point operations of the scaled formula it replaces, operands at
most commuted, so the results are bit-identical to evaluating that formula
with fresh arrays.  ``reverse`` allocates its adjoint state once per call
in the same way, and :func:`_run` frees the step-only buffers when the
solve ends, before a trail's ``reverse`` runs.  Nothing is cached on the
operator or the module.  Two rules keep callers safe: ``step`` never
writes into the caller's ``x0`` or ``z`` (denoising passes ``x0 = z``), and
never into an operator's result, since the identity returns its argument.
``SolveReport.image`` and ``dual_q`` are the iteration's own buffers,
handed over when the solve ends; ``dual_q`` is ``r`` multiplied by sigma in
place, the unscaled q.

Training differentiates ``T`` unrolled iterations with respect to the weight
field.  With the box-clip pattern of every iteration fixed, an iteration is
affine in its state, so given a ``trail`` list ``step`` also appends what the
reverse step needs: one int8 clip code per dual entry (one per real part for
complex data) and, for PD3O, the positivity mask of the prox and the clamped
curvature ``exp(-mu A p)``.  ``reverse`` walks the trail backwards, applying
A, A^T, grad and grad^T once each per iteration, and returns dL/dlam.  At
8x32x32 the PDHG trail holds 24 KiB per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericalError
from .fileio import write_csv
from .metrics import psnr
from .operators import LinearOperator
from .parallel import pmap
from .prox import (
    EXP_CLAMP,
    ClampDiag,
    KlParams,
    box_clip,
    box_clip_code,
    box_clip_vjp,
    exp_clamped,
    kl_grad_sino,
    kl_lipschitz,
    kl_value,
    nonneg_prox,
)
from .tensors import (
    SharingMode,
    constant_map,
    expand_map,
    grad,
    grad_adjoint,
    grad_norm_exact,
    ndirs,
    weighted_tv,
)

# Safety factor applied to estimated operator norms before step sizing, so the
# step-size inequalities hold for the true norm and not just the estimate.
NORM_CUSHION = 1.0 + 1e-3

# The driver checks the iterate for finiteness, and the tolerance of a solve
# given one, after every CHECK_EVERY iterations and after the last one.
CHECK_EVERY = 50


@dataclass
class Problem:
    """One reconstruction instance: operator, data, optional truth and init."""

    A: LinearOperator
    z: np.ndarray
    x_true: np.ndarray | None = None
    x0: np.ndarray | None = None
    kl: KlParams | None = None

    def init_image(self) -> np.ndarray:
        if self.x0 is not None:
            return self.x0
        return self.A.adjoint(self.z)


class StepParams(NamedTuple):
    """Dual and primal step sizes (checked by :class:`_PrimalDual`)."""

    sigma: float
    tau: float


@dataclass
class SolveReport:
    image: np.ndarray
    iterations: int
    objective: list[float] = field(default_factory=list)
    step_norm: list[float] = field(default_factory=list)
    data_residual: list[float] = field(default_factory=list)
    dual_q: np.ndarray | None = None
    reached_tol: float | None = None
    converged: bool = True
    clamp: ClampDiag = field(default_factory=ClampDiag)
    reverse: Callable[[np.ndarray], np.ndarray] | None = None

    def write_diagnostics(self, path) -> None:
        rows = [
            (float(i), o, s, d)
            for i, (o, s, d) in enumerate(
                zip(self.objective, self.step_norm, self.data_residual), start=1
            )
        ]
        write_csv(path, ["iter", "objective", "step_norm", "data_residual"], rows)


def stacked_norm_bound(A: LinearOperator) -> float:
    """Certified upper bound on |[A; grad]|: the estimated |A| (cushioned,
    cached by the operator) and the exact gradient norm combine as
    sqrt(|A|^2 + |grad|^2).  For A = I the bound is tight."""
    return float(np.sqrt((A.norm() * NORM_CUSHION) ** 2 + grad_norm_exact(A.domain_shape) ** 2))


def pdhg_step_params(L: float) -> StepParams:
    """sigma = tau = 1/L with L the bound of :func:`stacked_norm_bound`."""
    return StepParams(sigma=1.0 / L, tau=1.0 / L)


def pd3o_step_params(A: LinearOperator, kl: KlParams, grad_norm: float) -> StepParams:
    """tau = 0.9 * 2 / Lip(grad h), sigma = 1 / (tau |grad|^2)."""
    lip = kl_lipschitz(A, kl)
    tau = 0.9 * 2.0 / lip
    return StepParams(sigma=1.0 / (tau * grad_norm**2), tau=tau)


def as_weight_field(lam, shape) -> np.ndarray:
    """``lam`` as the weight field of an image of ``shape``: a scalar gives a
    constant field, an array must be real, of shape (ndirs, *shape), finite
    and strictly positive."""
    if np.iscomplexobj(lam):
        raise ValueError("weight field must be real")
    if np.isscalar(lam):
        return constant_map(float(lam), shape)
    lam = np.asarray(lam, dtype=np.float64)
    want = (ndirs(shape),) + tuple(shape)
    if lam.shape != want:
        raise ValueError(f"weight field shape {lam.shape} does not fit image shape "
                         f"{tuple(shape)}, which needs {want}")
    if not np.all(np.isfinite(lam)):
        raise ValueError("weight field must be finite")
    if np.any(lam <= 0):
        raise ValueError("weight field must be strictly positive")
    return lam


class _PrimalDual:
    """The half both iterations share: the weight field ``lam``, the step
    sizes, which must satisfy sigma, tau > 0 and sigma * tau * L^2 <= 1 with
    L bounding the dual operator (|[A; grad]| for PDHG, |grad| for PD3O),
    the iterate ``image`` and the one before the last step ``prev``,
    ``xbar``, the TV dual held scaled as ``r`` = q / sigma with its scratch
    ``u`` and its clip box ``bound`` = lam / sigma, ``neg_bound`` = -bound,
    and the ``trail``; and the TV dual step r' = clip(r + grad xbar), which
    is q' = clip(q + sigma grad xbar) divided by sigma.  :func:`_run` hands
    ``r`` over as ``dual_q``, multiplied by sigma in place.  A subclass adds
    its fidelity: its steps (PDHG updates its data dual s = p / sigma in
    place), ``_image_forward``, ``_fidelity`` and its ``_STEP_ONLY`` buffers."""

    _STEP_ONLY = ("prev", "xbar", "u", "bound", "neg_bound")

    def __init__(self, A, z, lam, x0, dtype, step, L, trail):
        self.lam = as_weight_field(lam, x0.shape)
        sigma, tau = step
        if not (sigma > 0 and tau > 0 and sigma * tau * L * L <= 1.0 + 1e-9):
            raise ValueError("step sizes violate sigma, tau > 0 and sigma * tau * L^2 <= 1")
        self.A, self.z, self.sigma, self.tau, self.trail = A, z, sigma, tau, trail
        self.bound = self.lam / sigma
        self.neg_bound = -self.bound
        self.image = np.array(x0, dtype=dtype)
        self.prev = self.image.copy()
        self.xbar = self.image.copy()
        self.r = np.zeros(self.lam.shape, dtype=dtype)
        self.u = np.empty_like(self.r)
        self.diag = ClampDiag()

    def _tv_dual_step(self):
        """r' = clip(r + grad xbar); returns the clip code when there is a
        trail, else None."""
        u = grad(self.xbar, out=self.u)
        u += self.r
        box_clip(u, self.bound, self.r, self.neg_bound)
        return None if self.trail is None else box_clip_code(u, self.bound, self.neg_bound)

    def measure(self) -> tuple[float, float]:
        """Objective (fidelity plus weighted TV) and data residual |Ax - z|
        at the current iterate."""
        ax = self._image_forward()
        r = ax - self.z
        obj = self._fidelity(ax, r) + weighted_tv(self.image, self.lam)
        return obj, float(np.linalg.norm(r.ravel()))


class _TvAdjoint:
    """The reverse of the TV dual step and descent, its adjoint state
    allocated once per sweep: ``gq`` = dL/dq and the running dL/dlam ``glam``.
    It runs on the unscaled q = sigma r; the clip codes the step takes of
    ``u`` against lam / sigma are the codes of q's clip against lam."""

    def __init__(self, it: _PrimalDual):
        self.sigma, self.tau = it.sigma, it.tau
        self.gq, self.gu = np.zeros_like(it.r), np.empty_like(it.r)
        self.gl, self.glam = np.empty_like(it.lam), np.zeros_like(it.lam)
        pairs = (2,) if np.iscomplexobj(it.r) else ()  # complex codes hold (re, im) pairs
        self.keep = np.empty(it.r.shape + pairs, dtype=np.int64)

    def back(self, code, g_desc, gxbar) -> None:
        """One step back from ``g_desc``, the gradient at the descent's output:
        ``gq`` moves to the step's input, ``glam`` gains the clip's share and
        ``gxbar`` becomes sigma grad^T dL/du."""
        gu = grad(g_desc, out=self.gu)
        gu *= self.tau
        np.subtract(self.gq, gu, out=gu)
        box_clip_vjp(code, gu, self.gl, self.keep)
        self.gq, self.gu = gu, self.gq
        self.glam += self.gl
        grad_adjoint(self.gq, out=gxbar)
        gxbar *= self.sigma


class _Pdhg(_PrimalDual):
    """The PDHG iteration for 0.5|Ax - z|^2 + |lam grad x|_1; each
    :meth:`step` runs one: dual L2 step, TV dual step, primal descent step,
    extrapolation xbar = 2 x' - x.  Starts from p = 0, q = 0, xbar = x0.
    The L2 dual is held scaled as ``s`` = p / sigma, so the dual steps need
    no sigma and the descent applies tau sigma once: with
    w = tau sigma (A^T s' + grad^T r'), x' = x - w and xbar' = x' - w.
    With a ``trail`` list, each step appends its clip code for :meth:`reverse`.
    """

    def __init__(self, A, z, lam, x0, step=None, trail=None):
        L = stacked_norm_bound(A)
        step = pdhg_step_params(L) if step is None else step
        super().__init__(A, z, lam, x0, np.result_type(x0, z), step, L, trail)
        self.s = np.zeros(z.shape, dtype=np.result_type(z, self.image.dtype))

    def step(self) -> None:
        A, x, xbar, s, sigma = self.A, self.image, self.xbar, self.s, self.sigma
        # s' = (s + A xbar - z) / (1 + sigma), which is p' / sigma
        s += A.forward(xbar)
        s -= self.z
        s *= 1.0 / (1.0 + sigma)
        code = self._tv_dual_step()
        # w into xbar, read by now; x' into the spent prev
        w = grad_adjoint(self.r, out=xbar)
        w += A.adjoint(s)
        w *= self.tau * sigma
        x_new = np.subtract(x, w, out=self.prev)
        np.subtract(x_new, w, out=xbar)
        self.prev, self.image = x, x_new
        if code is not None:
            self.trail.append(code)

    def reverse(self, g: np.ndarray) -> np.ndarray:
        """dL/dlam of a loss with gradient ``g`` at the current iterate,
        through every step the trail recorded.  A step maps (x, xbar, p, q)
        to p' = (p + sigma (A xbar - z)) / (1 + sigma),
        q' = clip(q + sigma grad xbar), x' = x - tau A^T p' - tau grad^T q',
        xbar' = 2 x' - x; the adjoints below run those lines backwards, with
        x0 and z held constant."""
        A, sigma, tau = self.A, self.sigma, self.tau
        s = 1.0 / (1.0 + sigma)
        tv = _TvAdjoint(self)
        gx = np.array(g, dtype=self.image.dtype)
        gx_new, gxbar = np.empty_like(gx), np.zeros_like(gx)
        gp, gp_step = np.zeros_like(self.s), np.empty_like(self.s)
        for code in reversed(self.trail):
            np.multiply(gxbar, 2.0, out=gx_new)
            gx_new += gx
            np.subtract(gx_new, gxbar, out=gx)
            gp -= np.multiply(A.forward(gx_new), tau, out=gp_step)
            tv.back(code, gx_new, gxbar)
            gxbar += np.multiply(A.adjoint(gp), sigma * s, out=gx_new)
            gp *= s
        return tv.glam

    def _image_forward(self) -> np.ndarray:
        return self.A.forward(self.image)  # the step formed A xbar only

    def _fidelity(self, ax, r) -> float:
        return 0.5 * float(np.sum(np.abs(r) ** 2))


class _Pd3o(_PrimalDual):
    """The PD3O iteration for the KL fidelity ``kl`` plus weighted TV plus a
    nonnegativity constraint; each :meth:`step` runs one.  Starts from
    p = xbar0, q = 0.  ``image`` is the prox output p.  With a ``trail``
    list, each step appends its clip code, positivity mask and clamped
    curvature for :meth:`reverse`.
    """

    _STEP_ONLY = _PrimalDual._STEP_ONLY + ("tau_gh", "gh", "ax")

    def __init__(self, A, z, lam, kl, xbar0, step=None, trail=None):
        grad_norm = grad_norm_exact(xbar0.shape)
        step = pd3o_step_params(A, kl, grad_norm) if step is None else step
        super().__init__(A, z, lam, xbar0, np.result_type(xbar0, np.float64), step, grad_norm,
                         trail)
        self.kl = kl
        self.exp_mz = exp_clamped(-z * kl.mu, self.diag)
        self.tau_gh = np.empty_like(self.image)
        self.gh, _ = self._grad_h(self.image)

    def _grad_h(self, p: np.ndarray, curvature: bool = False):
        """The KL gradient at ``p`` and, if ``curvature``, the clamped
        exp(-mu A p) the gradient took, zero where the clamp engaged, which
        its derivative A^T diag(mu^2 n0 exp(-mu A p)) A needs; else None.
        A p is kept as ``ax``, which :meth:`measure` reads."""
        ax = self.ax = self.A.forward(p)
        factor, exp_m_ax = kl_grad_sino(ax, self.exp_mz, self.kl, self.diag)
        gh = self.A.adjoint(factor)
        if not curvature:
            return gh, None
        return gh, np.where(np.abs(ax * self.kl.mu) <= EXP_CLAMP, exp_m_ax, 0.0)

    def step(self) -> None:
        p, xbar, tau, tau_gh = self.image, self.xbar, self.tau, self.tau_gh
        code = self._tv_dual_step()
        # p' = max(p - tau gh - tau sigma grad^T r', 0) into the spent prev,
        # with xbar (read by now) as scratch
        np.multiply(self.gh, tau, out=tau_gh)
        p_new = np.subtract(p, tau_gh, out=self.prev)
        gtr = grad_adjoint(self.r, out=xbar)
        gtr *= tau * self.sigma
        p_new -= gtr
        nonneg_prox(p_new, out=p_new)
        gh_new, curv = self._grad_h(p_new, code is not None)
        # xbar' = 2 p' - p + tau gh - tau gh'
        np.multiply(p_new, 2.0, out=xbar)
        xbar -= p
        xbar += tau_gh
        xbar -= np.multiply(gh_new, tau, out=tau_gh)
        self.prev, self.image, self.gh = p, p_new, gh_new
        if code is not None:
            self.trail.append((code, p_new > 0, curv))

    def reverse(self, g: np.ndarray) -> np.ndarray:
        """dL/dlam of a loss with gradient ``g`` at the current iterate,
        through every step the trail recorded.  A step maps (p, xbar, q, gh)
        to q' = clip(q + sigma grad xbar), p' = max(p - tau gh - tau grad^T q', 0),
        gh' = grad_h(p'), xbar' = 2 p' - p + tau gh - tau gh'; the adjoints
        below run those lines backwards, with xbar0 and z held constant."""
        A, tau = self.A, self.tau
        c = self.kl.mu**2 * self.kl.n0
        tv = _TvAdjoint(self)
        gp = np.array(g, dtype=self.image.dtype)
        gw, gxbar, ggh = np.empty_like(gp), np.zeros_like(gp), np.zeros_like(gp)
        for code, pos, curv in reversed(self.trail):
            # gw = gp' masked to the positive set, gp' = gp + 2 gxbar + the
            # curvature term of gh' on ggh' = ggh - tau gxbar (built in gp)
            np.multiply(gxbar, 2.0, out=gw)
            gw += gp
            ggh_new = np.multiply(gxbar, tau, out=gp)
            np.subtract(ggh, ggh_new, out=ggh_new)
            gw += A.adjoint((c * curv) * A.forward(ggh_new))
            np.copyto(gw, 0.0, where=~pos)
            np.subtract(gw, gxbar, out=gp)
            np.subtract(gxbar, gw, out=ggh)
            ggh *= tau
            tv.back(code, gw, gxbar)
        return tv.glam

    def _image_forward(self) -> np.ndarray:
        return self.ax  # A p' of the step's gradient, p' being the image

    def _fidelity(self, ax, r) -> float:
        return kl_value(ax, self.exp_mz, self.kl, self.diag)


def _step_norm(it) -> float:
    return float(np.linalg.norm((it.image - it.prev).ravel()))


def _run(it, T: int, tol: float | None, record: bool) -> SolveReport:
    """Up to ``T`` steps of ``it``, its iterate checked for finiteness every
    ``CHECK_EVERY`` steps and after the last one; ``record`` keeps the
    objective, step norm and data residual after each step.  With ``tol``,
    the run stops at the first check whose relative step norm is <= ``tol``,
    and ``reached_tol`` holds the last ratio checked.  ``dual_q`` is ``it.r``
    multiplied by sigma in place, and the buffers only ``step`` uses are
    freed, so ``it`` takes no further step; with a trail, ``reverse`` is
    ``it.reverse``."""
    if T < 0:
        raise ValueError("iteration count must be >= 0")
    objective, step_norm, data_residual = [], [], []
    done, ratio = 0, np.inf
    while done < T:
        it.step()
        done += 1
        if record:
            obj, resid = it.measure()
            objective.append(obj)
            step_norm.append(_step_norm(it))
            data_residual.append(resid)
        if done % CHECK_EVERY == 0 or done == T:
            if not np.isfinite(it.image).all():
                raise NumericalError(f"non-finite iterate at iteration {done}", iteration=done)
            if tol is not None:
                ratio = _step_norm(it) / max(float(np.linalg.norm(it.image.ravel())), 1e-30)
                if ratio <= tol:
                    break
    for name in it._STEP_ONLY:
        setattr(it, name, None)
    return SolveReport(image=it.image, iterations=done, objective=objective,
                       step_norm=step_norm, data_residual=data_residual,
                       dual_q=np.multiply(it.r, it.sigma, out=it.r),
                       clamp=it.diag, reached_tol=None if tol is None else ratio,
                       converged=tol is None or ratio <= tol,
                       reverse=None if it.trail is None else it.reverse)


# The two drivers stay separate functions, each named for its fidelity, only
# because the benchmark's tracer times them by name and reads the iteration
# count of the report each returns.
def pdhg_solve(problem: Problem, lam, T: int, step, tol, record, trail) -> SolveReport:
    """:func:`solve_problem` for the squared-L2 fidelity: :class:`_Pdhg`."""
    return _run(_Pdhg(problem.A, problem.z, lam, problem.init_image(), step, trail), T, tol, record)


def pd3o_solve_ct(problem: Problem, lam, T: int, step, tol, record, trail) -> SolveReport:
    """:func:`solve_problem` for the KL fidelity: :class:`_Pd3o`, whose
    image, the prox output, is nonnegative by construction."""
    return _run(_Pd3o(problem.A, problem.z, lam, problem.kl, problem.init_image(), step, trail),
                T, tol, record)


def solve_problem(
    problem: Problem,
    lam,
    T: int,
    *,
    step: StepParams | None = None,
    tol: float | None = None,
    record: bool = False,
    trail: list | None = None,
) -> SolveReport:
    """Up to ``T`` iterations of the solver matching the problem's fidelity,
    PD3O when ``problem.kl`` is set, else PDHG, from ``problem.init_image()``
    with step sizes ``step`` (None: the iteration's default).  ``tol`` and
    ``record`` are :func:`_run`'s: without ``tol`` the solve runs exactly
    ``T`` iterations, and run to a small ``tol`` it stands in for the exact
    minimizer.  Given a ``trail`` list, each step appends what its reverse
    needs, and the report's ``reverse`` differentiates the solve with
    respect to ``lam``."""
    solve = pd3o_solve_ct if problem.kl is not None else pdhg_solve
    return solve(problem, lam, T, step, tol, record, trail)


def grid_candidates(mode: SharingMode, grid) -> list[tuple[float, ...]]:
    """The channel values :func:`grid_search_scalar` scans, in scan order:
    ``(lam,)`` ascending for mode xyt, and for mode xy_t the product of the
    (spatial, temporal) lists as pairs in ascending lexicographic order."""
    if mode is SharingMode.XYT:
        return [(v,) for v in sorted(map(float, grid))]
    sp, tm = grid
    return [(a, b) for a in sorted(map(float, sp)) for b in sorted(map(float, tm))]


def grid_search_scalar(
    problems: list[Problem],
    mode: SharingMode,
    grid,
    T: int,
    workers: int = 0,
):
    """Pick the scalar weight(s) maximizing mean PSNR over ``problems``.

    ``grid`` is a list of values for mode xyt, or a pair of lists (spatial,
    temporal) whose Cartesian product is scanned for mode xy_t, in the order
    of :func:`grid_candidates`; ties keep the earlier, i.e. smaller,
    candidate.  Returns ``(best, scores)``: ``best`` the value (xyt) or the
    pair (xy_t), ``scores`` the mean PSNR per candidate in scan order.
    Candidates are scored on up to ``workers`` processes (0: the
    :func:`pmap` default) with identical results.
    """
    if mode is SharingMode.X_Y_T:
        raise ValueError("grid search supports modes xyt and xy_t")
    if not problems:
        raise ValueError("empty problem list")
    for prob in problems:
        if prob.x_true is None:
            raise ValueError("grid search needs ground-truth images")
    cands = grid_candidates(mode, grid)
    if not cands:
        raise ValueError("empty grid")
    if any(min(c) <= 0 for c in cands):
        raise ValueError("grid values must be strictly positive")

    def score(cand) -> float:
        vals = []
        for prob in problems:
            shape = prob.init_image().shape
            lam = expand_map(np.stack([np.full(shape, v) for v in cand]), mode)
            rep = solve_problem(prob, lam, T)
            vals.append(psnr(rep.image, prob.x_true))
        return float(np.mean(vals))

    scores = pmap(score, cands, workers)
    best = cands[max(range(len(cands)), key=scores.__getitem__)]  # first of ties
    return (best[0] if mode is SharingMode.XYT else best), scores
