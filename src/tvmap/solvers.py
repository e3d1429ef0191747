"""Primal-dual solvers with fixed weight fields, plus reference solves and
scalar grid-search baselines.

Each solver's iteration is written once, as the ``step`` of :class:`_Pdhg`
and :class:`_Pd3o`; the fixed-``T`` solvers, :func:`reference_solve` and the
training path only drive it.  Both solvers are bit-for-bit deterministic.

Buffers.  Each :class:`_Pdhg` / :class:`_Pd3o` instance allocates its state
once (``image``, ``prev``, ``xbar``, the duals ``p`` and ``q``, the
gradient-field scratch ``u``) and ``step`` writes every temporary into
those, through the ``out=`` forms of the kernels: the new iterate goes into
the spent ``prev`` and the two swap, and ``xbar`` doubles as scratch once
read.  Each in-place sequence performs the floating-point operations of
the formula it replaces, operands at most commuted, so the results are
bit-identical to evaluating the formula with fresh arrays.  ``reverse``
allocates its adjoint state once per call in the same way, and
:func:`unroll` frees the step-only buffers before handing the iteration to
the tape.  Nothing is cached on the operator or the module, so concurrent
solves (threaded grid search) share no buffer.  Two rules keep callers safe:
``step`` never writes into the caller's ``x0`` or ``z`` (denoising passes
``x0 = z``), and never into an operator's result, since the identity
returns its argument.  ``SolveReport.image`` and ``dual_q`` are the
iteration's own buffers, handed over when the solve ends.

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
    l2_conjugate_prox,
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

# reference_solve tests its stopping rule, and PDHG its iterate for
# finiteness, after every CHECK_EVERY iterations.
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


@dataclass
class StepParams:
    sigma: float
    tau: float

    def __post_init__(self):
        if self.sigma <= 0 or self.tau <= 0:
            raise ValueError("sigma and tau must be positive")


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

    def write_diagnostics(self, path) -> None:
        rows = [
            (float(i), o, s, d)
            for i, (o, s, d) in enumerate(
                zip(self.objective, self.step_norm, self.data_residual), start=1
            )
        ]
        write_csv(path, ["iter", "objective", "step_norm", "data_residual"], rows)


def stacked_norm_bound(A: LinearOperator) -> float:
    """Certified upper bound on |[A; grad]|: the estimated |A| (cushioned)
    and the exact gradient norm combine as sqrt(|A|^2 + |grad|^2).  Cached on
    the operator instance; for A = I the bound is tight."""
    cached = getattr(A, "_stacked_norm_bound", None)
    if cached is None:
        cached = float(
            np.sqrt(
                (A.norm() * NORM_CUSHION) ** 2
                + grad_norm_exact(A.domain_shape) ** 2
            )
        )
        A._stacked_norm_bound = cached
    return cached


def pdhg_step_params(A: LinearOperator) -> StepParams:
    """sigma = tau = 1/L with L the stacked-operator norm bound."""
    L = stacked_norm_bound(A)
    return StepParams(sigma=1.0 / L, tau=1.0 / L)


def _as_field(lam, shape) -> np.ndarray:
    if np.isscalar(lam):
        return constant_map(float(lam), shape)
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (ndirs(shape),) + tuple(shape):
        raise ValueError(f"weight field shape {lam.shape} does not fit image {shape}")
    if not np.all(np.isfinite(lam)):
        raise ValueError("weight field must be finite")
    if np.any(lam <= 0):
        raise ValueError("weight field must be strictly positive")
    return lam


def _check_finite(it) -> None:
    if not np.isfinite(it.image).all():
        raise NumericalError(f"non-finite iterate at iteration {it.done}", iteration=it.done)


class _Pdhg:
    """The PDHG iteration for 0.5|Ax - z|^2 + |lam grad x|_1; each
    :meth:`step` runs one: dual L2 step, dual clip step, primal descent step,
    extrapolation xbar = 2 x' - x.  Starts from p = 0, q = 0, xbar = x0.
    ``image`` is the current iterate, ``prev``
    the one before the last step.  The iterate is checked for finiteness
    every ``CHECK_EVERY`` steps, and again after the last one by whoever
    runs the steps.  With a ``trail`` list, each step appends its clip code
    for :meth:`reverse`.
    """

    def __init__(self, A, z, lam, x0, step=None, trail=None):
        self.lam = _as_field(lam, x0.shape)
        self.neg_lam = -self.lam
        if step is None:
            step = pdhg_step_params(A)
        L = stacked_norm_bound(A)
        if step.sigma * step.tau * L * L > 1.0 + 1e-9:
            raise ValueError("step sizes violate sigma * tau * L^2 <= 1")
        self.A, self.z, self.params = A, z, step
        dtype = np.result_type(x0, z)
        self.image = np.array(x0, dtype=dtype)
        self.prev = self.image.copy()
        self.xbar = self.image.copy()
        self.p = np.zeros(z.shape, dtype=np.result_type(z, dtype))
        self.p_next = np.empty_like(self.p)
        self.q = np.zeros(self.lam.shape, dtype=dtype)
        self.u = np.empty_like(self.q)
        self.diag = ClampDiag()  # stays empty: no exponentials here
        self.trail = trail
        self.done = 0

    def step(self) -> None:
        A, x, xbar, sigma, tau = self.A, self.image, self.xbar, self.params.sigma, self.params.tau
        l2_conjugate_prox(self.p, A.forward(xbar), self.z, sigma, out=self.p_next)
        self.p, self.p_next = self.p_next, self.p
        u = grad(xbar, out=self.u)
        u *= sigma
        u += self.q
        box_clip(u, self.lam, out=self.q, neg_lam=self.neg_lam)
        if self.trail is not None:
            self.trail.append(box_clip_code(u, self.lam, neg_lam=self.neg_lam))
        # x' = x - tau A^T p' - tau grad^T q' into the spent prev, with xbar
        # (read by now) holding grad^T q'
        x_new = np.multiply(A.adjoint(self.p), tau, out=self.prev)
        np.subtract(x, x_new, out=x_new)
        gtq = grad_adjoint(self.q, out=xbar)
        gtq *= tau
        x_new -= gtq
        np.subtract(x_new, x, out=xbar)
        xbar += x_new
        self.prev, self.image = x, x_new
        self.done += 1
        if self.done % CHECK_EVERY == 0:
            _check_finite(self)

    def drop_step_buffers(self) -> None:
        """Free the buffers only :meth:`step` uses; :meth:`reverse` still runs."""
        self.prev = self.xbar = self.p_next = self.u = self.neg_lam = None

    def reverse(self, g: np.ndarray) -> np.ndarray:
        """dL/dlam of a loss with gradient ``g`` at the current iterate,
        through every step the trail recorded.  A step maps (x, xbar, p, q)
        to p' = (p + sigma (A xbar - z)) / (1 + sigma),
        q' = clip(q + sigma grad xbar), x' = x - tau A^T p' - tau grad^T q',
        xbar' = 2 x' - x; the adjoints below run those lines backwards, with
        x0 and z held constant."""
        A, sigma, tau = self.A, self.params.sigma, self.params.tau
        s = 1.0 / (1.0 + sigma)
        gx = np.array(g, dtype=self.image.dtype)
        gx_new, gxbar = np.empty_like(gx), np.zeros_like(gx)
        gp, gp_step = np.zeros_like(self.p), np.empty_like(self.p)
        gq, gu, gl = np.zeros_like(self.q), np.empty_like(self.q), np.empty_like(self.lam)
        glam = np.zeros_like(self.lam)
        for code in reversed(self.trail):
            np.multiply(gxbar, 2.0, out=gx_new)
            gx_new += gx
            np.subtract(gx_new, gxbar, out=gx)
            gp -= np.multiply(A.forward(gx_new), tau, out=gp_step)
            grad(gx_new, out=gu)
            gu *= tau
            np.subtract(gq, gu, out=gu)
            box_clip_vjp(code, gu, out=gl)
            gq, gu = gu, gq
            glam += gl
            grad_adjoint(gq, out=gxbar)
            gxbar *= sigma
            gxbar += np.multiply(A.adjoint(gp), sigma * s, out=gx_new)
            gp *= s
        return glam

    def measure(self) -> tuple[float, float]:
        """Objective and data residual |Ax - z| at the current iterate."""
        r = self.A.forward(self.image) - self.z
        obj = 0.5 * float(np.sum(np.abs(r) ** 2)) + weighted_tv(self.image, self.lam)
        return obj, float(np.linalg.norm(r.ravel()))


class _Pd3o:
    """The PD3O iteration for the KL fidelity plus weighted TV plus a
    nonnegativity constraint; each :meth:`step` runs one.  Starts from
    p = xbar0, q = 0.  ``kl = None`` (with explicit ``steps``) disables the
    smooth term: the gradient step vanishes, which reduces one iteration to a
    PDHG iteration with the nonnegativity prox.  ``image`` is the prox output
    p, ``prev`` the one before the last step; every step checks it for
    finiteness.  With a ``trail`` list, each step appends its clip code,
    positivity mask and clamped curvature for :meth:`reverse`.
    """

    def __init__(self, A, z, lam, kl, xbar0, steps=None, trail=None):
        self.lam = _as_field(lam, xbar0.shape)
        self.neg_lam = -self.lam
        grad_norm = grad_norm_exact(xbar0.shape)
        sigma, tau = pd3o_step_params(A, kl, grad_norm) if steps is None else steps
        if sigma * tau * grad_norm**2 > 1.0 + 1e-9:
            raise ValueError("step sizes violate sigma * tau * |grad|^2 <= 1")
        self.A, self.z, self.kl, self.sigma, self.tau = A, z, kl, sigma, tau
        self.diag = ClampDiag()
        self.exp_mz = None if kl is None else exp_clamped(-z * kl.mu, self.diag)
        self.image = np.array(xbar0, dtype=np.result_type(xbar0, np.float64))
        self.prev = self.image.copy()
        self.xbar = self.image.copy()
        self.tau_gh = np.empty_like(self.image)
        self.q = np.zeros(self.lam.shape, dtype=self.image.dtype)
        self.u = np.empty_like(self.q)
        self.gh, _ = self._grad_h(self.image)
        self.trail = trail
        self.done = 0

    def _grad_h(self, p: np.ndarray, curvature: bool = False):
        """The KL gradient at ``p`` and, if ``curvature``, the clamped
        exp(-mu A p) (zero where the clamp engaged) that its derivative
        A^T diag(mu^2 n0 exp(-mu A p)) A needs; else None."""
        if self.kl is None:
            return np.zeros_like(p), None
        ax = self.A.forward(p)
        gh = self.A.adjoint(kl_grad_sino(ax, self.exp_mz, self.kl, self.diag))
        if not curvature:
            return gh, None
        arg = -ax * self.kl.mu
        return gh, np.where(np.abs(arg) <= EXP_CLAMP, exp_clamped(arg), 0.0)

    def step(self) -> None:
        p, xbar, tau, tau_gh = self.image, self.xbar, self.tau, self.tau_gh
        u = grad(xbar, out=self.u)
        u *= self.sigma
        u += self.q
        box_clip(u, self.lam, out=self.q, neg_lam=self.neg_lam)
        # p' = max(p - tau gh - tau grad^T q', 0) into the spent prev, with
        # xbar (read by now) holding grad^T q'
        np.multiply(self.gh, tau, out=tau_gh)
        p_new = np.subtract(p, tau_gh, out=self.prev)
        gtq = grad_adjoint(self.q, out=xbar)
        gtq *= tau
        p_new -= gtq
        nonneg_prox(p_new, out=p_new)
        gh_new, curv = self._grad_h(p_new, self.trail is not None)
        # xbar' = 2 p' - p + tau gh - tau gh'
        np.multiply(p_new, 2.0, out=xbar)
        xbar -= p
        xbar += tau_gh
        xbar -= np.multiply(gh_new, tau, out=tau_gh)
        self.prev, self.image, self.gh = p, p_new, gh_new
        self.done += 1
        _check_finite(self)
        if self.trail is not None:
            code = box_clip_code(u, self.lam, neg_lam=self.neg_lam)
            self.trail.append((code, p_new > 0, curv))

    def drop_step_buffers(self) -> None:
        """Free the buffers only :meth:`step` uses; :meth:`reverse` still runs."""
        self.prev = self.xbar = self.tau_gh = self.u = self.neg_lam = self.gh = None

    def reverse(self, g: np.ndarray) -> np.ndarray:
        """dL/dlam of a loss with gradient ``g`` at the current iterate,
        through every step the trail recorded.  A step maps (p, xbar, q, gh)
        to q' = clip(q + sigma grad xbar), p' = max(p - tau gh - tau grad^T q', 0),
        gh' = grad_h(p'), xbar' = 2 p' - p + tau gh - tau gh'; the adjoints
        below run those lines backwards, with xbar0 and z held constant."""
        A, sigma, tau = self.A, self.sigma, self.tau
        c = 0.0 if self.kl is None else self.kl.mu**2 * self.kl.n0
        gp = np.array(g, dtype=self.image.dtype)
        gw, gxbar, ggh = np.empty_like(gp), np.zeros_like(gp), np.zeros_like(gp)
        gq, gu, gl = np.zeros_like(self.q), np.empty_like(self.q), np.empty_like(self.lam)
        glam = np.zeros_like(self.lam)
        for code, pos, curv in reversed(self.trail):
            # gw = gp' masked to the positive set, gp' = gp + 2 gxbar + the
            # curvature term of gh' on ggh' = ggh - tau gxbar (built in gp)
            np.multiply(gxbar, 2.0, out=gw)
            gw += gp
            if curv is not None:
                ggh_new = np.multiply(gxbar, tau, out=gp)
                np.subtract(ggh, ggh_new, out=ggh_new)
                gw += A.adjoint((c * curv) * A.forward(ggh_new))
            np.copyto(gw, 0.0, where=~pos)
            np.subtract(gw, gxbar, out=gp)
            np.subtract(gxbar, gw, out=ggh)
            ggh *= tau
            grad(gw, out=gu)
            gu *= tau
            np.subtract(gq, gu, out=gu)
            box_clip_vjp(code, gu, out=gl)
            gq, gu = gu, gq
            glam += gl
            grad_adjoint(gq, out=gxbar)
            gxbar *= sigma
        return glam

    def measure(self) -> tuple[float, float]:
        """Objective and data residual |Ax - z| at the current iterate."""
        ax = self.A.forward(self.image)
        obj = weighted_tv(self.image, self.lam)
        if self.kl is not None:
            obj += kl_value(ax, self.z, self.kl, self.diag)
        return obj, float(np.linalg.norm((ax - self.z).ravel()))


def _step_norm(it) -> float:
    return float(np.linalg.norm((it.image - it.prev).ravel()))


def _report(it, iterations: int, **fields) -> SolveReport:
    return SolveReport(image=it.image, iterations=iterations, dual_q=it.q, clamp=it.diag,
                       **fields)


def _run(it, T: int, record: bool) -> SolveReport:
    """Exactly ``T`` steps of ``it``; ``record`` keeps the objective, step
    norm and data residual after each."""
    objective, step_norm, data_residual = [], [], []
    for _ in range(T):
        it.step()
        if record:
            obj, resid = it.measure()
            objective.append(obj)
            step_norm.append(_step_norm(it))
            data_residual.append(resid)
    _check_finite(it)
    return _report(it, T, objective=objective, step_norm=step_norm,
                   data_residual=data_residual)


def pdhg_solve(
    A: LinearOperator,
    z: np.ndarray,
    lam,
    x0: np.ndarray,
    T: int,
    step: StepParams | None = None,
    record: bool = False,
) -> SolveReport:
    """Exactly ``T`` PDHG iterations (:class:`_Pdhg`) for
    0.5|Ax - z|^2 + |lam grad x|_1."""
    if T < 0:
        raise ValueError("iteration count must be >= 0")
    return _run(_Pdhg(A, z, lam, x0, step), T, record)


def pd3o_step_params(A: LinearOperator, kl: KlParams, grad_norm: float) -> tuple[float, float]:
    """tau = 0.9 * 2 / Lip(grad h), sigma = 1 / (tau |grad|^2)."""
    lip = kl_lipschitz(A, kl)
    tau = 0.9 * 2.0 / lip
    sigma = 1.0 / (tau * grad_norm**2)
    return sigma, tau


def pd3o_solve_ct(
    A: LinearOperator,
    z: np.ndarray,
    lam,
    kl: KlParams,
    xbar0: np.ndarray,
    T: int,
    record: bool = False,
) -> SolveReport:
    """Exactly ``T`` PD3O iterations (:class:`_Pd3o`) for the KL fidelity
    plus weighted TV plus a nonnegativity constraint, with the step sizes of
    :func:`pd3o_step_params`.

    Returns the prox output p_T, which is nonnegative by construction.
    """
    if T < 0:
        raise ValueError("iteration count must be >= 0")
    return _run(_Pd3o(A, z, lam, kl, xbar0), T, record)


def solve_problem(problem: Problem, lam, T: int, record: bool = False) -> SolveReport:
    """Run the solver matching the problem's fidelity (PDHG or PD3O)."""
    start = problem.init_image()
    if problem.kl is not None:
        return pd3o_solve_ct(problem.A, problem.z, lam, problem.kl, start, T, record=record)
    return pdhg_solve(problem.A, problem.z, lam, start, T, record=record)


def unroll(A, z, lam, x0, T: int, kl: KlParams | None = None, trail: list | None = None):
    """Exactly ``T`` steps of the iteration :func:`solve_problem` picks (PD3O
    when ``kl`` is set, else PDHG) from ``x0``, with default step sizes.
    Returns the iteration without its step buffers, so that it holds no
    more than ``image`` and what ``reverse`` reads; given a ``trail`` list,
    its ``reverse`` then differentiates the run with respect to ``lam``."""
    if kl is not None:
        it = _Pd3o(A, z, lam, kl, x0, trail=trail)
    else:
        it = _Pdhg(A, z, lam, x0, trail=trail)
    for _ in range(T):
        it.step()
    _check_finite(it)
    it.drop_step_buffers()
    return it


def reference_solve(
    problem: Problem,
    lam,
    tol: float = 1e-10,
    T_max: int = 20000,
    x0: np.ndarray | None = None,
    step: StepParams | None = None,
) -> SolveReport:
    """Run the iteration :func:`solve_problem` picks until the relative step
    norm, checked every ``CHECK_EVERY`` iterations, drops below ``tol`` (or
    ``T_max`` is reached); a converged-enough stand-in for the exact
    minimizer.  ``step`` applies to PDHG only.  ``report.reached_tol`` records
    the final step ratio and ``report.converged`` whether the tolerance was
    met.
    """
    start = x0 if x0 is not None else problem.init_image()
    if problem.kl is not None:
        it = _Pd3o(problem.A, problem.z, lam, problem.kl, start)
    else:
        it = _Pdhg(problem.A, problem.z, lam, start, step)
    done = 0
    ratio = np.inf
    while done < T_max:
        block = min(CHECK_EVERY, T_max - done)
        for _ in range(block):
            it.step()
        done += block
        ratio = _step_norm(it) / max(float(np.linalg.norm(it.image.ravel())), 1e-30)
        if ratio <= tol:
            break
    _check_finite(it)
    return _report(it, done, reached_tol=ratio, converged=ratio <= tol)


def _lam_for_candidate(cand, mode: SharingMode, shape) -> np.ndarray:
    if mode is SharingMode.XYT:
        chans = np.full((1,) + tuple(shape), float(cand))
    elif mode is SharingMode.XY_T:
        sp, tm = cand
        chans = np.stack([np.full(shape, float(sp)), np.full(shape, float(tm))])
    else:
        raise ValueError("grid search supports modes xyt and xy_t")
    return expand_map(chans, mode)


def grid_search_scalar(
    problems: list[Problem],
    mode: SharingMode,
    grid,
    T: int,
    workers: int = 1,
):
    """Pick the scalar weight(s) maximizing mean PSNR over ``problems``.

    ``grid`` is a list of values for mode xyt, or a pair of lists (spatial,
    temporal) whose Cartesian product is scanned for mode xy_t.  Candidates
    are visited in ascending (lexicographic) order and ties keep the earlier,
    i.e. smaller, candidate.  Returns ``(best, scores)`` with ``scores`` the
    mean PSNR per candidate in scan order.  Candidates are scored on
    up to ``workers`` processes (0: the :func:`pmap` default) with
    identical results.
    """
    if not problems:
        raise ValueError("empty problem list")
    for prob in problems:
        if prob.x_true is None:
            raise ValueError("grid search needs ground-truth images")
    if mode is SharingMode.XYT:
        cands = sorted(float(v) for v in grid)
    else:
        sp, tm = grid
        cands = [(a, b) for a in sorted(map(float, sp)) for b in sorted(map(float, tm))]
    if not cands:
        raise ValueError("empty grid")
    if any((min(c) if isinstance(c, tuple) else c) <= 0 for c in cands):
        raise ValueError("grid values must be strictly positive")

    def score(cand) -> float:
        vals = []
        for prob in problems:
            lam = _lam_for_candidate(cand, mode, prob.init_image().shape)
            rep = solve_problem(prob, lam, T)
            vals.append(psnr(rep.image, prob.x_true))
        return float(np.mean(vals))

    scores = pmap(score, cands, workers)
    best_i = 0
    for i in range(1, len(cands)):
        if scores[i] > scores[best_i]:
            best_i = i
    return cands[best_i], scores
