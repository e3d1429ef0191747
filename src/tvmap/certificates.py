"""Executable certificates for the solver theory: the sub-linear rate bound
of the primal-dual iteration and the Lipschitz bound of the solution map in
the weight field.

Both certificates assemble the involved operators densely (brute-force
symmetric eigensolves provide the constants), so they are restricted to
small real-valued problems with the squared-L2 fidelity, where the fidelity
is 1-strongly convex with 1-Lipschitz gradient (the constants mu_z = L_z = 1
of the bounds).  The limit points are reference solves to a relative step of
``REF_TOL``; one that stops short of it raises :class:`ConvergenceError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .operators import LinearOperator, identity_op
from .solvers import Problem, SolveReport, StepParams, pdhg_step_params, solve_problem
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
    lam_min_ata: float
    lam_bar: float
    c_za: float
    m_norm_gap: float
    entries: list[tuple[int, float, float]] = field(default_factory=list)

    def holds(self) -> bool:
        return all(measured <= bound for _, measured, bound in self.entries)


def _injective_dense(A: LinearOperator, shape) -> tuple[np.ndarray, float]:
    """The dense matrix of ``A`` on images of ``shape`` and lambda_min(A^T A);
    raises unless ``A`` is injective."""
    a_mat = dense_matrix(A.forward, shape, int(np.prod(A.codomain_shape)))
    lam_min_ata = float(np.linalg.eigvalsh(a_mat.T @ a_mat)[0])
    if lam_min_ata <= 0:
        raise ValueError("A^T A is singular; the certificate needs injective A")
    return a_mat, lam_min_ata


def rate_certificate(
    A: LinearOperator,
    z: np.ndarray,
    lam: np.ndarray,
    x0: np.ndarray,
    T_list,
    step: StepParams | None = None,
) -> RateCertificate:
    """Measure |x_T - x*| against the T^(-1/4) bound for each T.

    Constants come from dense eigensolves of the step-size matrix M and of
    A^T A; the limit point is a tightly converged reference solve, with the
    primal dual limit taken as A x* - z and the TV dual limit as the final
    clip iterate.  Raises if M is not positive definite for the step sizes.
    """
    shape = x0.shape
    if int(np.prod(shape)) > 64:
        raise ValueError("dense certificate assembly is limited to 64 pixels")
    if step is None:
        base = pdhg_step_params(A)
        # back off from the boundary so M is safely positive definite
        step = StepParams(sigma=0.9 * base.sigma, tau=0.9 * base.tau)
    a_mat, lam_min_ata = _injective_dense(A, shape)
    m, n = a_mat.shape
    qn = ndirs(tuple(shape)) * n
    k_mat = np.vstack([a_mat, dense_matrix(lambda v: grad(v), shape, qn)])
    dim = n + m + qn
    m_mat = np.zeros((dim, dim))
    m_mat[:n, :n] = np.eye(n) / step.tau
    m_mat[n:, n:] = np.eye(m + qn) / step.sigma
    m_mat[:n, n:] = -k_mat.T
    m_mat[n:, :n] = -k_mat
    eigs = np.linalg.eigvalsh(m_mat)
    if eigs[0] <= 0:
        raise ValueError("M is not positive definite; reduce the step sizes")
    c_lower, c_upper = float(np.sqrt(eigs[0])), float(np.sqrt(eigs[-1]))

    lam_bar = float(np.linalg.norm(np.asarray(lam).ravel()))
    c_za = max(c_upper * A.norm(), 4.0 * c_upper * lam_bar, 2.0, lam_min_ata) / lam_min_ata

    prob = Problem(A=A, z=z, x0=x0)
    ref = _limit(prob, lam, step)
    x_star = ref.image
    p_star = A.forward(x_star) - z
    q_star = ref.dual_q
    v_gap = np.concatenate(
        [
            (x0 - x_star).ravel(),
            (np.zeros_like(z) - p_star).ravel(),
            (np.zeros_like(q_star) - q_star).ravel(),
        ]
    )
    m_norm_gap = float(np.sqrt(v_gap @ (m_mat @ v_gap)))

    cert = RateCertificate(
        c_lower=c_lower,
        c_upper=c_upper,
        lam_min_ata=lam_min_ata,
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


def lipschitz_probe(
    A: LinearOperator,
    z: np.ndarray,
    lam1: np.ndarray,
    lam2: np.ndarray,
) -> tuple[float, float]:
    """Compare |S*(lam1) - S*(lam2)| with its theoretical Lipschitz bound
    (2 |grad| / (lam_min(A^T A) mu_z)) |lam1 - lam2|; raises on violation."""
    prob = Problem(A=A, z=z)
    shape = prob.init_image().shape
    ref1 = _limit(prob, lam1)
    ref2 = _limit(prob, lam2)
    lhs = float(np.linalg.norm((ref1.image - ref2.image).ravel()))
    _, lam_min_ata = _injective_dense(A, shape)
    grad_norm = grad_norm_exact(shape)
    diff = float(np.linalg.norm((np.asarray(lam1) - np.asarray(lam2)).ravel()))
    rhs = 2.0 * grad_norm / lam_min_ata * diff
    if lhs > rhs + 1e-12:
        raise AssertionError(f"Lipschitz bound violated: {lhs} > {rhs}")
    return lhs, rhs


def desk_rate_certificate(rng: np.random.Generator) -> RateCertificate:
    """The rate certificate for denoising a 1x4x4 standard-normal draw from
    ``rng`` with the constant weight 0.3, at T = 1, 2, 4, ..., 1024."""
    shape = (1, 4, 4)
    z = rng.standard_normal(shape)
    return rate_certificate(identity_op(shape), z, constant_map(0.3, shape), z.copy(),
                            T_list=[2**k for k in range(11)])


def desk_lipschitz_worst(rng: np.random.Generator, pairs: int) -> float:
    """The worst lhs/rhs of :func:`lipschitz_probe` for denoising a 1x8x1
    standard-normal draw from ``rng``, over ``pairs`` random weight-field
    pairs drawn after it; pairs with a zero bound are skipped."""
    shape = (1, 8, 1)
    A = identity_op(shape)
    z = rng.standard_normal(shape)
    worst = 0.0
    for _ in range(pairs):
        lam1 = np.abs(rng.standard_normal((2,) + shape)) * 0.4 + 0.02
        lam2 = np.abs(rng.standard_normal((2,) + shape)) * 0.4 + 0.02
        lhs, rhs = lipschitz_probe(A, z, lam1, lam2)
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    return worst
