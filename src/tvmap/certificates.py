"""Executable certificates for the solver theory on denoising (A = I, start
x0 = z): the sub-linear rate bound of the primal-dual iteration and the
Lipschitz bound of the solution map in the weight field.

The rate certificate assembles the step-size matrix densely (a brute-force
symmetric eigensolve provides its constants), so it is restricted to small
real-valued images.  The squared-L2 fidelity is 1-strongly convex with
1-Lipschitz gradient (the constants mu_z = L_z = 1 of the bounds).  The limit
points are reference solves to a relative step of ``REF_TOL``; one that stops
short of it raises :class:`ConvergenceError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .operators import IdentityOp
from .solvers import (Problem, SolveReport, StepParams, pdhg_step_params, solve_problem,
                      stacked_norm_bound)
from .tensors import constant_map, grad, grad_norm_exact, ndirs


# relative step norm and iteration cap of the reference solves
REF_TOL = 1e-12
REF_T_MAX = 200000


def _limit(problem: Problem, lam, step: StepParams | None = None) -> SolveReport:
    ref = solve_problem(problem, lam, REF_T_MAX, step=step, tol=REF_TOL)
    if not ref.converged:
        raise ConvergenceError(
            f"reference solve reached a relative step of {ref.reached_tol:.3e} in "
            f"{ref.iterations} iterations, not {REF_TOL:.0e}", estimate=ref.reached_tol)
    return ref


def dense_matrix(apply_fn, in_shape, out_size: int) -> np.ndarray:
    """Materialize a linear map column by column from basis probes."""
    n = int(np.prod(in_shape))
    mat = np.zeros((out_size, n))
    e = np.zeros(in_shape)
    flat = e.reshape(-1)
    for j in range(n):
        flat[j] = 1.0
        mat[:, j] = np.asarray(apply_fn(e)).ravel()
        flat[j] = 0.0
    return mat


@dataclass
class RateCertificate:
    c_lower: float
    c_upper: float
    lam_bar: float
    c_za: float
    m_norm_gap: float
    entries: list[tuple[int, float, float]] = field(default_factory=list)

    def holds(self) -> bool:
        return all(measured <= bound for _, measured, bound in self.entries)


def rate_certificate(
    z: np.ndarray,
    lam: np.ndarray,
    T_list,
    step: StepParams | None = None,
) -> RateCertificate:
    """Measure |x_T - x*| against the T^(-1/4) bound for each T, denoising
    ``z`` from the start x0 = z.

    Constants come from a dense eigensolve of the step-size matrix M; the
    limit point is a tightly converged reference solve, with the primal dual
    limit taken as x* - z and the TV dual limit as the final clip iterate.
    Raises if M is not positive definite for the step sizes.
    """
    shape = z.shape
    n = int(np.prod(shape))
    if n > 64:
        raise ValueError("dense certificate assembly is limited to 64 pixels")
    A = IdentityOp(shape)
    if step is None:
        base = pdhg_step_params(stacked_norm_bound(A))
        # back off from the boundary so M is safely positive definite
        step = StepParams(sigma=0.9 * base.sigma, tau=0.9 * base.tau)
    qn = ndirs(shape) * n
    k_mat = np.vstack([np.eye(n), dense_matrix(lambda v: grad(v), shape, qn)])
    dim = 2 * n + qn
    m_mat = np.zeros((dim, dim))
    m_mat[:n, :n] = np.eye(n) / step.tau
    m_mat[n:, n:] = np.eye(n + qn) / step.sigma
    m_mat[:n, n:] = -k_mat.T
    m_mat[n:, :n] = -k_mat
    eigs = np.linalg.eigvalsh(m_mat)
    if eigs[0] <= 0:
        raise ValueError("M is not positive definite; reduce the step sizes")
    c_lower, c_upper = float(np.sqrt(eigs[0])), float(np.sqrt(eigs[-1]))

    # the general constant max(C |A|, 4 C |lam|, 2, l) / l, l = lambda_min(A^T A),
    # with |A| = l = 1
    lam_bar = float(np.linalg.norm(np.asarray(lam).ravel()))
    c_za = max(c_upper, 4.0 * c_upper * lam_bar, 2.0)

    prob = Problem(A=A, z=z, x0=z)
    ref = _limit(prob, lam, step)
    x_star = ref.image
    q_star = ref.dual_q
    # from the start (x, p, q) = (z, 0, 0) to the limit (x*, x* - z, q*)
    gap_x = (z - x_star).ravel()
    v_gap = np.concatenate([gap_x, gap_x, -q_star.ravel()])
    m_norm_gap = float(np.sqrt(v_gap @ (m_mat @ v_gap)))

    cert = RateCertificate(
        c_lower=c_lower,
        c_upper=c_upper,
        lam_bar=lam_bar,
        c_za=c_za,
        m_norm_gap=m_norm_gap,
    )
    for T in T_list:
        rep = solve_problem(prob, lam, int(T), step=step)
        measured = float(np.linalg.norm((rep.image - x_star).ravel()))
        bound = 3.0 * c_za / float(T) ** 0.25 * (1.0 + m_norm_gap)
        cert.entries.append((int(T), measured, bound))
    return cert


def lipschitz_probe(z: np.ndarray, lam1: np.ndarray, lam2: np.ndarray) -> tuple[float, float]:
    """Compare the denoising solutions' distance |S*(lam1) - S*(lam2)| with its
    Lipschitz bound 2 |grad| |lam1 - lam2| (the general bound's
    lambda_min(A^T A) mu_z in the denominator is 1); raises on violation."""
    prob = Problem(A=IdentityOp(z.shape), z=z, x0=z)
    ref1 = _limit(prob, lam1)
    ref2 = _limit(prob, lam2)
    lhs = float(np.linalg.norm((ref1.image - ref2.image).ravel()))
    diff = float(np.linalg.norm((np.asarray(lam1) - np.asarray(lam2)).ravel()))
    rhs = 2.0 * grad_norm_exact(z.shape) * diff
    if lhs > rhs + 1e-12:
        raise AssertionError(f"Lipschitz bound violated: {lhs} > {rhs}")
    return lhs, rhs


def desk_rate_certificate(rng: np.random.Generator) -> RateCertificate:
    """The rate certificate for denoising a 1x4x4 standard-normal draw from
    ``rng`` with the constant weight 0.3, at T = 1, 2, 4, ..., 1024."""
    shape = (1, 4, 4)
    z = rng.standard_normal(shape)
    return rate_certificate(z, constant_map(0.3, shape), T_list=[2**k for k in range(11)])


def desk_lipschitz_worst(rng: np.random.Generator, pairs: int) -> float:
    """The worst lhs/rhs of :func:`lipschitz_probe` for denoising a 1x8x1
    standard-normal draw from ``rng``, over ``pairs`` random weight-field
    pairs drawn after it; pairs with a zero bound are skipped."""
    shape = (1, 8, 1)
    z = rng.standard_normal(shape)
    worst = 0.0
    for _ in range(pairs):
        lam1 = np.abs(rng.standard_normal((2,) + shape)) * 0.4 + 0.02
        lam2 = np.abs(rng.standard_normal((2,) + shape)) * 0.4 + 0.02
        lhs, rhs = lipschitz_probe(z, lam1, lam2)
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    return worst
