import tracemalloc
from collections import Counter

import numpy as np
import pytest

from oracles import GradOp, ZeroHPd3o, l2_conjugate_prox, np_clip_box, rof_denoise_oracle
from tvmap import solvers
from tvmap.operators import (
    IdentityOp,
    LinearOperator,
    MriEncoder,
    RadonOp,
    cg_normal_init,
    make_cartesian_mask,
    synth_coil_maps,
)
from tvmap.prox import ClampDiag, KlParams, nonneg_prox
from tvmap.solvers import (
    CHECK_EVERY,
    _Pd3o,
    _Pdhg,
    _run,
    Problem,
    SolveReport,
    StepParams,
    grid_search_scalar,
    solve_problem,
)
from tvmap.tensors import SharingMode, constant_map, grad, grad_adjoint, ndirs, weighted_tv


def two_pixel_problem():
    z = np.array([0.0, 2.0]).reshape(1, 2, 1)
    return IdentityOp((1, 2, 1)), z


def test_single_pixel_denoising_returns_data():
    A = IdentityOp((1, 1, 1))
    z = np.array([[[1.7]]])
    rep = solve_problem(Problem(A=A, z=z, x0=np.zeros((1, 1, 1))), 0.4, T=200)
    assert abs(rep.image[0, 0, 0] - 1.7) <= 1e-8


def test_two_pixel_rof_closed_form():
    A, z = two_pixel_problem()
    rep = solve_problem(Problem(A=A, z=z, x0=z.copy()), 0.5, T=5000)
    np.testing.assert_allclose(rep.image.ravel(), [0.5, 1.5], atol=1e-6)


def test_two_pixel_large_weight_gives_mean():
    A, z = two_pixel_problem()
    rep = solve_problem(Problem(A=A, z=z, x0=z.copy()), 1e6, T=5000)
    np.testing.assert_allclose(rep.image.ravel(), [1.0, 1.0], atol=1e-6)


def test_eight_pixel_matches_dual_coordinate_oracle(rng):
    A = IdentityOp((1, 8, 1))
    for trial in range(4):
        z = rng.standard_normal((1, 8, 1))
        lam = float(rng.random() * 0.4 + 0.1)
        x_star = rof_denoise_oracle(z, lam)
        rep = solve_problem(Problem(A=A, z=z, x0=z.copy()), lam, T=20000)
        assert np.max(np.abs(rep.image - x_star)) <= 1e-5


def test_2d_instance_matches_oracle(rng):
    A = IdentityOp((1, 4, 3))
    z = rng.standard_normal((1, 4, 3))
    lam_field = np.abs(rng.standard_normal((2, 1, 4, 3))) * 0.3 + 0.05
    x_star = rof_denoise_oracle(z, lam_field)
    rep = solve_problem(Problem(A=A, z=z, x0=z.copy()), lam_field, T=20000)
    assert np.max(np.abs(rep.image - x_star)) <= 1e-5


def test_solver_deterministic(rng):
    A = IdentityOp((2, 6, 6))
    z = rng.standard_normal((2, 6, 6))
    r1 = solve_problem(Problem(A=A, z=z, x0=z.copy()), 0.2, T=50, record=True)
    r2 = solve_problem(Problem(A=A, z=z, x0=z.copy()), 0.2, T=50, record=True)
    assert np.array_equal(r1.image, r2.image)
    assert r1.objective == r2.objective
    assert r1.step_norm == r2.step_norm


def test_pdhg_fixed_point():
    A, z = two_pixel_problem()
    ref = solve_problem(Problem(A=A, z=z, x0=z.copy()), 0.5, 100000, tol=1e-14)
    x_star = ref.image
    p_star = A.forward(x_star) - z
    it = _Pdhg(A, z, 0.5, x_star)
    # the iteration holds its duals divided by sigma
    it.s, it.r = p_star / it.sigma, ref.dual_q / it.sigma
    it.step()
    assert np.max(np.abs(it.image - x_star)) <= 1e-10


def test_step_invariant_violation():
    A, z = two_pixel_problem()
    with pytest.raises(ValueError):
        solve_problem(Problem(A=A, z=z, x0=z.copy()), 0.5, T=5,
                      step=StepParams(sigma=10.0, tau=10.0))


def test_objective_practically_decreasing(rng):
    A = IdentityOp((2, 5, 5))
    z = rng.standard_normal((2, 5, 5))
    rep = solve_problem(Problem(A=A, z=z, x0=z.copy()), 0.3, T=256, record=True)
    for k in (16, 32, 64, 128):
        assert rep.objective[2 * k - 1] <= rep.objective[k - 1] + 1e-9


def test_diagnostics_lengths_and_csv(tmp_path, rng):
    A = IdentityOp((1, 4, 4))
    z = rng.standard_normal((1, 4, 4))
    rep = solve_problem(Problem(A=A, z=z, x0=z.copy()), 0.2, T=7, record=True)
    assert len(rep.objective) == len(rep.step_norm) == len(rep.data_residual) == 7
    path = tmp_path / "diag.csv"
    rep.write_diagnostics(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,objective,step_norm,data_residual"
    assert len(lines) == 8


def small_ct(rng, n=8, noise=True):
    op = RadonOp(n, 12, 13, side=1.0)
    x_true = np.zeros((1, n, n))
    x_true[0, 2:6, 2:6] = 0.8
    x_true[0, 3:5, 3:5] = 0.4
    kl = KlParams(mu=3.0, n0=1000.0)
    ax = op.forward(x_true)
    if noise:
        counts = rng.poisson(kl.n0 * np.exp(-ax * kl.mu)).astype(float)
        counts = np.maximum(counts, 0.1)
        z = -np.log(counts / kl.n0) / kl.mu
    else:
        z = ax
    return op, x_true, z, kl


def test_pd3o_output_nonnegative(rng):
    op, x_true, z, kl = small_ct(rng)
    for T in (1, 3, 17):
        rep = solve_problem(Problem(A=op, z=z, x0=np.zeros_like(x_true), kl=kl), 0.01, T)
        assert np.min(rep.image) >= 0.0


def test_pd3o_objective_approaches_long_run_minimum(rng):
    op, x_true, z, kl = small_ct(rng, noise=False)
    rep = solve_problem(Problem(A=op, z=z, x0=np.zeros_like(x_true), kl=kl), 1e-9, 4000,
                        record=True)
    objs = np.array(rep.objective)
    final = objs[-1]
    best = objs.min()
    assert (final - best) / abs(best) <= 1e-6


def test_pd3o_with_zero_h_matches_pdhg_nonneg_states(rng):
    # the gradient-step-free reduction: both schemes on a 4-pixel instance
    shape = (1, 4, 1)
    x0 = np.abs(rng.standard_normal(shape)) + 0.1
    lam = constant_map(0.3, shape)
    gn = GradOp(shape).norm() * (1.0 + 1e-3)
    sigma, tau = 1.0 / gn, 1.0 / gn
    it = ZeroHPd3o(IdentityOp(shape), x0, lam, KlParams(mu=1.0, n0=1.0), x0, (sigma, tau))
    # hand-rolled PDHG for min iota_{x>=0}(x) + |lam grad x|_1 with theta = 1
    x = x0.copy()
    xbar = x0.copy()
    q = np.zeros_like(grad(x0))
    for k in range(10):
        q = np.clip(q + sigma * grad(xbar), -lam, lam)
        x_new = nonneg_prox(x - tau * grad_adjoint(q))
        xbar = x_new + 1.0 * (x_new - x)
        it.step()
        p_snap, xbar_snap, q_snap = it.image, it.xbar, it.sigma * it.r
        np.testing.assert_allclose(p_snap, x_new, rtol=0, atol=1e-13)
        np.testing.assert_allclose(xbar_snap, xbar, rtol=0, atol=1e-13)
        np.testing.assert_allclose(q_snap, q, rtol=0, atol=1e-13)
        x = x_new


def test_pd3o_nonfinite_guard(rng):
    # absurd log-counts push the clamped exponentials past float64 range
    from tvmap.errors import NumericalError

    op = RadonOp(8, 12, 13, side=1.0)
    bad = KlParams(mu=3.0, n0=1e6)
    z = np.full(op.codomain_shape, -1e6)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError) as exc:
        solve_problem(Problem(A=op, z=z, x0=np.zeros((1, 8, 8)), kl=bad), 0.01, 5)
    assert exc.value.iteration is not None


@pytest.mark.parametrize("record", [False, True])
def test_pd3o_counts_the_data_clamp_once(record):
    # one data bin past the clamp: exp(-z mu) is taken once per solve, also
    # when each iteration records its objective
    op = RadonOp(8, 6, 11, side=1.0)
    z = op.forward(np.random.default_rng(0).random((1, 8, 8)))
    z[0, 5] = 300.0
    prob = Problem(A=op, z=z, x0=np.zeros((1, 8, 8)), kl=KlParams(mu=3.0, n0=100.0))
    rep = solve_problem(prob, 0.01, 10, record=record)
    assert rep.clamp == ClampDiag(events=1, entries=1)


@pytest.mark.parametrize("T, at", [(3, 3), (CHECK_EVERY + 10, CHECK_EVERY)])
@pytest.mark.parametrize("solver", ["pdhg", "pd3o"])
def test_nonfinite_guard_cadence(rng, solver, T, at):
    # both solvers are checked every CHECK_EVERY iterations and after the last one
    from tvmap.errors import NumericalError

    z = rng.standard_normal((2, 6, 6))
    z[1, 2, 3] = np.nan
    A, x0 = IdentityOp(z.shape), np.zeros_like(z)
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError) as exc:
        if solver == "pdhg":
            solve_problem(Problem(A=A, z=z, x0=x0), 0.1, T)
        else:
            solve_problem(Problem(A=A, z=z, x0=x0, kl=KlParams(mu=1.0, n0=50.0)), 0.1, T)
    assert exc.value.iteration == at


@pytest.mark.parametrize("solver", ["pdhg", "pd3o"])
def test_complex_weight_field_rejected(rng, solver):
    # casting would keep the real part and drop the imaginary one silently
    z = np.abs(rng.standard_normal((2, 6, 6))) + 0.5
    lam = constant_map(0.1, z.shape) * (1.0 + 0.5j)
    with pytest.raises(ValueError, match="real"):
        if solver == "pdhg":
            solve_problem(Problem(A=IdentityOp(z.shape), z=z, x0=z), lam, 3)
        else:
            solve_problem(Problem(A=IdentityOp(z.shape), z=z, x0=z,
                                  kl=KlParams(mu=1.0, n0=50.0)), lam, 3)


def test_reference_solve_pdhg_nonfinite_guard():
    from tvmap.errors import NumericalError

    z = np.full((1, 4, 4), np.inf)
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError) as exc:
        solve_problem(Problem(A=IdentityOp(z.shape), z=z), 0.1, 20000, tol=1e-10)
    assert exc.value.iteration == CHECK_EVERY


def test_reference_solve_two_pixel():
    A, z = two_pixel_problem()
    rep = solve_problem(Problem(A=A, z=z), 0.5, 20000, tol=1e-12)
    assert rep.converged
    np.testing.assert_allclose(rep.image.ravel(), [0.5, 1.5], atol=1e-9)


def test_reference_solve_idempotent():
    A, z = two_pixel_problem()
    first = solve_problem(Problem(A=A, z=z), 0.5, 20000, tol=1e-12)
    again = solve_problem(Problem(A=A, z=z, x0=first.image), 0.5, 20000, tol=1e-12)
    assert np.max(np.abs(again.image - first.image)) <= 1e-10


@pytest.mark.parametrize("fidelity", ["l2", "kl"])
def test_reference_solve_runs_the_fixed_T_iteration(rng, fidelity):
    # tol = 0 never stops early: T_max steps of the one iteration both share
    if fidelity == "l2":
        z = rng.standard_normal((2, 6, 6))
        prob = Problem(A=IdentityOp(z.shape), z=z)
        n = 120
    else:
        op, x_true, z, kl = small_ct(rng)
        prob = Problem(A=op, z=z, x0=np.zeros_like(x_true), kl=kl)
        n = 73
    ref = solve_problem(prob, 0.05, n, tol=0.0)
    rep = solve_problem(prob, 0.05, n)
    assert ref.iterations == n and not ref.converged
    assert np.array_equal(ref.image, rep.image)
    assert np.array_equal(ref.dual_q, rep.dual_q)


def test_reference_solve_pd3o_nonfinite_guard():
    from tvmap.errors import NumericalError

    op = RadonOp(8, 12, 13, side=1.0)
    prob = Problem(A=op, z=np.full(op.codomain_shape, -1e6), x0=np.zeros((1, 8, 8)),
                   kl=KlParams(mu=3.0, n0=1e6))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
        solve_problem(prob, 0.01, 5, tol=1e-10)


def test_grid_search_two_pixel():
    A, z = two_pixel_problem()
    prob = Problem(A=A, z=z, x_true=np.array([0.5, 1.5]).reshape(1, 2, 1), x0=z)
    best, scores = grid_search_scalar([prob], SharingMode.XYT, [0.25, 0.5, 1.0], T=2000)
    assert best == 0.5
    assert len(scores) == 3


def test_grid_search_single_point():
    A, z = two_pixel_problem()
    prob = Problem(A=A, z=z, x_true=z.copy(), x0=z)
    best, _ = grid_search_scalar([prob], SharingMode.XYT, [0.7], T=50)
    assert best == 0.7


def test_grid_search_tie_breaks_to_smaller():
    # constant truth with z = x_true: every weight reproduces z exactly,
    # all scores tie at +inf and the smallest candidate must win
    A = IdentityOp((1, 4, 4))
    z = np.full((1, 4, 4), 2.0)
    prob = Problem(A=A, z=z, x_true=z.copy(), x0=z)
    best, scores = grid_search_scalar([prob], SharingMode.XYT, [0.9, 0.1, 0.5], T=20)
    assert best == 0.1
    assert all(s == scores[0] for s in scores)


def test_grid_search_offset_invariance(rng):
    A, z = two_pixel_problem()
    prob = Problem(A=A, z=z, x_true=np.array([0.5, 1.5]).reshape(1, 2, 1), x0=z)
    _, scores = grid_search_scalar([prob], SharingMode.XYT, [0.25, 0.5, 1.0], T=2000)
    shifted = [s + 11.0 for s in scores]
    assert int(np.argmax(scores)) == int(np.argmax(shifted))


def test_grid_search_xy_t_on_time_constant_video(rng):
    # time-constant data: the temporal weight is inert, so the spatial best
    # collapses to the xyt answer and ties pick the smallest temporal value
    frame = rng.standard_normal((1, 6, 6))
    z = np.repeat(frame, 4, axis=0)
    truth = np.repeat(rng.standard_normal((1, 6, 6)), 4, axis=0)
    A = IdentityOp(z.shape)
    prob = Problem(A=A, z=z, x_true=truth, x0=z)
    grid = [0.05, 0.15, 0.45]
    best_xyt, _ = grid_search_scalar([prob], SharingMode.XYT, grid, T=300)
    best_pair, _ = grid_search_scalar([prob], SharingMode.XY_T, (grid, grid), T=300)
    assert best_pair[0] == best_xyt
    assert best_pair[1] == grid[0]


def test_grid_search_validation():
    A, z = two_pixel_problem()
    with pytest.raises(ValueError):
        grid_search_scalar([], SharingMode.XYT, [0.1], T=10)
    prob = Problem(A=A, z=z, x_true=z, x0=z)
    with pytest.raises(ValueError):
        grid_search_scalar([prob], SharingMode.XYT, [-0.1, 0.2], T=10)
    with pytest.raises(ValueError):
        grid_search_scalar([prob], SharingMode.XYT, [], T=10)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weight_field_rejected(rng, bad):
    # one bad entry used to spread NaN through the image without an error
    shape = (2, 8, 8)
    z = rng.standard_normal(shape)
    lam = constant_map(0.1, shape)
    lam[0, 1, 3, 4] = bad
    with pytest.raises(ValueError):
        solve_problem(Problem(A=IdentityOp(shape), z=z, x0=z), lam, T=10)
    with pytest.raises(ValueError):
        solve_problem(Problem(A=IdentityOp(shape), z=z, x0=z), bad, T=10)


def test_grid_search_workers_schedule_independent(rng):
    A = IdentityOp((2, 6, 6))
    z = rng.standard_normal((2, 6, 6))
    truth = rng.standard_normal((2, 6, 6))
    prob = Problem(A=A, z=z, x_true=truth, x0=z)
    grid = [0.05, 0.1, 0.2, 0.4]
    b1, s1 = grid_search_scalar([prob], SharingMode.XYT, grid, T=60, workers=1)
    b2, s2 = grid_search_scalar([prob], SharingMode.XYT, grid, T=60, workers=3)
    assert b1 == b2
    assert s1 == s2


def test_solve_problem_dispatches_kl(rng):
    op, x_true, z, kl = small_ct(rng)
    prob = Problem(A=op, z=z, x_true=x_true, x0=np.zeros_like(x_true), kl=kl)
    rep = solve_problem(prob, 0.01, T=5)
    assert np.min(rep.image) >= 0.0


def test_weighted_tv_consistency_with_report(rng):
    A = IdentityOp((1, 5, 5))
    z = rng.standard_normal((1, 5, 5))
    lam = 0.25
    rep = solve_problem(Problem(A=A, z=z, x0=z.copy()), lam, T=10, record=True)
    x = rep.image
    expected = 0.5 * float(np.sum((x - z) ** 2)) + weighted_tv(x, lam)
    assert rep.objective[-1] == pytest.approx(expected, rel=1e-12)


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


class _ReadOnlyResults(LinearOperator):
    """An operator whose results raise on any write, as the identity's own
    results (its argument) would have to be treated."""

    def __init__(self, op):
        super().__init__(op.domain_shape, op.codomain_shape)
        self.op = op
        self._norm_estimate = op.norm()

    def forward(self, x):
        return _read_only(self.op.forward(x))

    def adjoint(self, y):
        return _read_only(self.op.adjoint(y))


def _caller_problem(kind, rng):
    """(A, z, x0, kl) with x0 is z wherever the shapes allow it."""
    if kind in ("identity", "identity_kl"):
        z = np.abs(rng.standard_normal((3, 6, 5))) + 0.5
        kl = KlParams(mu=1.0, n0=50.0) if kind == "identity_kl" else None
        return IdentityOp(z.shape), z, z, kl
    if kind == "mri":
        enc = MriEncoder(synth_coil_maps(8, 8, 2), make_cartesian_mask(8, 8, 2, 2.0, seed=4))
        z = (rng.standard_normal(enc.codomain_shape)
             + 1j * rng.standard_normal(enc.codomain_shape)) * enc.masks[None]
        return enc, z, cg_normal_init(enc, z, 2), None
    op, x_true, z, kl = small_ct(rng)
    return op, z, np.zeros_like(x_true), (kl if kind == "radon_kl" else None)


@pytest.mark.parametrize("kind", ["identity", "identity_kl", "mri", "radon", "radon_kl"])
def test_solvers_never_write_caller_arrays(rng, kind):
    # the identity returns its argument, so a write into an operator result
    # or into x0 (which is z for denoising) would change the caller's data;
    # read-only inputs and operator results make any such write raise
    A, z, x0, kl = _caller_problem(kind, rng)
    aliased = x0 is z
    z = _read_only(z)
    x0 = z if aliased else _read_only(x0)
    A = _ReadOnlyResults(A)
    before = z.tobytes(), x0.tobytes()
    solve_problem(Problem(A=A, z=z, x0=x0, kl=kl), 0.05, 12, record=True)
    solve_problem(Problem(A=A, z=z, x0=x0, kl=kl), 0.05, CHECK_EVERY + 5, tol=0.0)
    if aliased:
        solve_problem(Problem(A=A, z=z, kl=kl), 0.05, 12)  # x0 = A^T z, which is z
    rep = solve_problem(Problem(A=A, z=z, x0=x0, kl=kl), 0.05, 12, trail=[])
    g = _read_only(rng.standard_normal(x0.shape).astype(rep.image.dtype))
    g_bytes = g.tobytes()
    rep.reverse(g)
    assert (z.tobytes(), x0.tobytes()) == before
    assert g.tobytes() == g_bytes


def test_pdhg_step_allocates_no_temporaries(rng):
    # after a warm-up, steps without a trail run in the iteration's own buffers
    shape = (8, 64, 64)
    z = rng.standard_normal(shape)
    it = _Pdhg(IdentityOp(shape), z, 0.1, z)
    for _ in range(3):
        it.step()
    tracemalloc.start()
    try:
        for _ in range(50):
            it.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < z.nbytes, f"50 steps peaked at {peak} bytes of temporaries"


def test_iterations_clip_against_minus_lam(rng):
    # step clips the scaled dual against the bound = lam / sigma and the
    # neg_bound each iteration computes once; it must stay -bound
    shape = (3, 8, 8)
    z = rng.random(shape)
    lam = rng.random((3,) + shape) + 0.01
    for it in (_Pdhg(IdentityOp(shape), z, lam, z),
               ZeroHPd3o(IdentityOp(shape), z, lam, KlParams(mu=1.0, n0=1.0), z, (0.1, 0.1))):
        for _ in range(3):
            it.step()
        assert np.array_equal(it.bound, it.lam / it.sigma)
        assert np.array_equal(it.neg_bound, -it.bound)


def _rel_dev(got, want) -> float:
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


@pytest.mark.parametrize("kind", ["identity", "mri", "radon_kl"])
def test_scaled_duals_match_textbook_iteration(rng, kind):
    # the step runs on s = p / sigma and r = q / sigma; state by state it
    # follows the textbook recursion, and the report hands over q itself;
    # the weight field is small enough for the clip to bind in places
    A, z, x0, kl = _caller_problem(kind, rng)
    lam = 0.02 + 0.2 * rng.random((ndirs(A.domain_shape),) + A.domain_shape)
    it = _Pd3o(A, z, lam, kl, x0) if kl is not None else _Pdhg(A, z, lam, x0)
    sigma, tau = it.sigma, it.tau
    x, xbar = x0.copy(), x0.copy()
    p = np.zeros_like(it.s) if kl is None else None
    q = np.zeros_like(it.r)
    if kl is not None:
        exp_mz = np.exp(-kl.mu * z)

        def grad_h(v):
            return A.adjoint(kl.mu * kl.n0 * (exp_mz - np.exp(-kl.mu * A.forward(v))))

        gh = grad_h(x)
    clipped = 0
    for _ in range(20):
        u = q + sigma * grad(xbar)
        clipped += int(np.count_nonzero(np.abs(u.real) > lam))
        q = np_clip_box(u, lam)
        if kl is None:
            p = l2_conjugate_prox(p, A.forward(xbar), z, sigma)
            x_new = x - tau * A.adjoint(p) - tau * grad_adjoint(q)
            xbar = 2.0 * x_new - x
        else:
            x_new = nonneg_prox(x - tau * gh - tau * grad_adjoint(q))
            gh_new = grad_h(x_new)
            xbar = 2.0 * x_new - x + tau * gh - tau * gh_new
            gh = gh_new
        x = x_new
        it.step()
        assert _rel_dev(it.image, x) <= 1e-13
        assert _rel_dev(it.xbar, xbar) <= 1e-13
        assert _rel_dev(sigma * it.r, q) <= 1e-13
        if kl is None:
            assert _rel_dev(sigma * it.s, p) <= 1e-13
    assert clipped > 0
    rep = solve_problem(Problem(A=A, z=z, x0=x0, kl=kl), lam, 20)
    assert np.array_equal(rep.image, it.image)
    assert _rel_dev(rep.dual_q, q) <= 1e-13


class _CountingOp(LinearOperator):
    """Counts the forward and adjoint applications of ``op`` in ``calls``."""

    def __init__(self, op, calls: Counter):
        super().__init__(op.domain_shape, op.codomain_shape)
        self.op, self.calls = op, calls
        self._norm_estimate = op.norm()

    def forward(self, x):
        self.calls["A.forward"] += 1
        return self.op.forward(x)

    def adjoint(self, y):
        self.calls["A.adjoint"] += 1
        return self.op.adjoint(y)


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("kind", ["identity", "mri", "radon_kl"])
def test_step_applies_each_operator_once(rng, monkeypatch, kind, record):
    """A step applies A, A^T, grad and grad^T once each: the counts behind
    the benchmark's ``*_calls_per_recon``.  A recorded step applies A once
    more, to x for the objective.  That extra forward is still open: the
    step has A xbar only, so ``record=True`` costs one matvec per step."""
    A, z, x0, kl = _caller_problem(kind, rng)
    calls = Counter()
    A = _CountingOp(A, calls)
    for name in ("grad", "grad_adjoint"):
        def counted(*args, _fn=getattr(solvers, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(solvers, name, counted)
    it = _Pd3o(A, z, 0.05, kl, x0) if kl is not None else _Pdhg(A, z, 0.05, x0)
    calls.clear()
    T = 3
    _run(it, T, None, record)
    assert calls == {"A.forward": (2 if record else 1) * T, "A.adjoint": T,
                     "grad": T, "grad_adjoint": T}
