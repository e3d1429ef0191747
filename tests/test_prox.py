import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fd_gradient, quad_vertex_min
from tvmap.operators import RadonOp, equispaced_angles
from tvmap.prox import (
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


def test_box_clip_piecewise_cases():
    lam = np.ones(3)
    np.testing.assert_array_equal(box_clip(np.array([1.5, -2.0, 0.3]), lam), [1.0, -1.0, 0.3])


def test_box_clip_idempotent(rng):
    q = rng.standard_normal((3, 2, 4, 4)) * 3
    lam = rng.random((3, 2, 4, 4)) + 0.1
    once = box_clip(q, lam)
    np.testing.assert_array_equal(box_clip(once, lam), once)


def test_box_clip_degenerate_corridor(rng):
    q = rng.standard_normal((2, 1, 3, 3))
    out = box_clip(q, np.full((2, 1, 3, 3), 1e-12))
    assert np.max(np.abs(out)) <= 1e-12


def test_box_clip_complex_acts_per_part():
    q = np.array([2.0 + 0.5j, -0.25 - 3.0j])
    out = box_clip(q, np.ones(2))
    np.testing.assert_array_equal(out, [1.0 + 0.5j, -0.25 - 1.0j])


def test_box_clip_shape_mismatch():
    with pytest.raises(ValueError):
        box_clip(np.zeros((2, 1, 3, 3)), np.ones((3, 1, 3, 3)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_box_clip_nonexpansive_in_q(seed):
    r = np.random.default_rng(seed)
    q1, q2 = r.standard_normal((2, 40)) * 4
    lam = r.random(40) + 0.05
    d_in = np.linalg.norm(q1 - q2)
    d_out = np.linalg.norm(box_clip(q1, lam) - box_clip(q2, lam))
    assert d_out <= d_in + 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_box_clip_one_lipschitz_in_bounds(seed):
    r = np.random.default_rng(seed)
    q = r.standard_normal(40) * 4
    lam1 = r.random(40) + 0.05
    lam2 = r.random(40) + 0.05
    d_out = np.linalg.norm(box_clip(q, lam1) - box_clip(q, lam2))
    assert d_out <= np.linalg.norm(lam1 - lam2) + 1e-12


def test_l2_conjugate_prox_examples():
    z = np.zeros(1)
    assert l2_conjugate_prox(np.zeros(1), z, z, 0.7)[0] == 0.0
    assert l2_conjugate_prox(np.zeros(1), np.array([2.0]), z, 1.0)[0] == pytest.approx(1.0)


def test_l2_conjugate_prox_fixed_point(rng):
    ax = rng.standard_normal(5)
    z = rng.standard_normal(5)
    p_star = ax - z
    np.testing.assert_allclose(l2_conjugate_prox(p_star, ax, z, 0.31), p_star, atol=1e-14)


def test_l2_conjugate_prox_matches_moreau_definition(rng):
    # prox_{sigma f1*}(v) with f1*(y) = y^2/2 + y z, via brute 1-d minimization
    for _ in range(10):
        p, ax, z = rng.standard_normal(3)
        sigma = float(rng.random() + 0.1)
        v = p + sigma * ax

        def objective(y):
            return 0.5 * (y - v) ** 2 + sigma * (0.5 * y * y + y * z)

        y_star = quad_vertex_min(objective)
        got = l2_conjugate_prox(np.array([p]), np.array([ax]), np.array([z]), sigma)[0]
        assert abs(got - y_star) <= 1e-8


def test_l2_conjugate_prox_validation():
    with pytest.raises(ValueError):
        l2_conjugate_prox(np.zeros(2), np.zeros(2), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        l2_conjugate_prox(np.zeros(2), np.zeros(3), np.zeros(2), 1.0)


def test_nonneg_prox():
    np.testing.assert_array_equal(nonneg_prox(np.array([-1.0, 2.0])), [0.0, 2.0])
    x = np.array([0.5, 3.0])
    np.testing.assert_array_equal(nonneg_prox(nonneg_prox(x)), nonneg_prox(x))
    np.testing.assert_array_equal(nonneg_prox(x), x)


def test_exp_clamped_flags():
    diag = ClampDiag()
    out = exp_clamped(np.array([0.0, 800.0, -900.0]), diag)
    assert diag.events > 0
    assert diag.entries == 2
    assert out[1] == np.exp(700.0)
    # no flag within range
    diag2 = ClampDiag()
    exp_clamped(np.array([1.0, -2.0]), diag2)
    assert not diag2.events > 0


def test_kl_value_single_bin():
    params = KlParams(mu=1.0, n0=1.0)
    assert kl_value(np.zeros(1), np.zeros(1), params) == pytest.approx(1.0)


def kl_grad_image(op, x, z, params):
    """Image-space KL gradient in the form the PD3O solver evaluates it."""
    return op.adjoint(kl_grad_sino(op.forward(x), exp_clamped(-z * params.mu), params))


def test_kl_grad_zero_at_match(rng):
    op = RadonOp(4, equispaced_angles(6), 7, side=1.0)
    params = KlParams(mu=2.0, n0=100.0)
    x = rng.random((1, 4, 4))
    z = op.forward(x)
    g = kl_grad_image(op, x, z, params)
    assert np.max(np.abs(g)) <= 1e-10


def test_kl_grad_matches_finite_differences(rng):
    op = RadonOp(4, equispaced_angles(6), 7, side=1.0)
    params = KlParams(mu=1.3, n0=50.0)
    for _ in range(20):
        x = rng.random((1, 4, 4))
        z = op.forward(rng.random((1, 4, 4)))
        g = kl_grad_image(op, x, z, params)
        g_fd = fd_gradient(lambda v: kl_value(op.forward(v), z, params), x)
        denom = max(np.max(np.abs(g_fd)), 1e-8)
        assert np.max(np.abs(g - g_fd)) / denom <= 1e-6


def test_kl_lipschitz_values(rng):
    class UnitOp:
        def norm(self):
            return 1.0

    assert kl_lipschitz(UnitOp(), KlParams(mu=1.0, n0=4096.0)) == pytest.approx(4096.0)
    assert kl_lipschitz(UnitOp(), KlParams(mu=2.0, n0=1.0)) == pytest.approx(4.0)
    op = RadonOp(8, equispaced_angles(10), 12, side=1.0)
    params = KlParams(mu=81.35858, n0=4096.0)
    assert kl_lipschitz(op, params) == pytest.approx(op.norm() ** 2 * 81.35858**2 * 4096.0)


def test_kl_params_validation():
    with pytest.raises(ValueError):
        KlParams(mu=0.0, n0=1.0)
    with pytest.raises(ValueError):
        KlParams(mu=1.0, n0=-3.0)


def _draw(rng, shape, dtype):
    x = rng.standard_normal(shape)
    if dtype is np.complex128:
        x = x + 1j * rng.standard_normal(shape)
    return x


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# fields of static (q = 2) and dynamic (q = 3) images, real and complex
OUT_CASES = [(shape, dtype) for shape in [(2, 1, 5, 4), (3, 3, 6, 5)]
             for dtype in (np.float64, np.complex128)]


@pytest.mark.parametrize("shape, dtype", OUT_CASES)
def test_box_clip_out_matches_allocating_form(rng, shape, dtype):
    u = 2.0 * _draw(rng, shape, dtype)
    lam = rng.random(shape) + 0.1
    want = box_clip(u, lam)
    out = np.full(shape, np.nan, dtype=dtype)
    assert box_clip(u, lam, out=out, neg_lam=-lam) is out
    assert _same_bytes(out, want)
    assert _same_bytes(box_clip(u, lam, neg_lam=-lam), want)
    box_clip(u, lam, out=u)  # in place
    assert _same_bytes(u, want)


@pytest.mark.parametrize("shape, dtype", OUT_CASES)
def test_box_clip_code_neg_lam_matches_default(rng, shape, dtype):
    u = 2.0 * _draw(rng, shape, dtype)
    lam = rng.random(shape) + 0.1
    want = box_clip_code(u, lam)
    assert _same_bytes(box_clip_code(u, lam, neg_lam=-lam), want)
    assert set(np.unique(want)) == {-1, 0, 1}


@pytest.mark.parametrize("shape, dtype", OUT_CASES)
def test_box_clip_vjp_out_matches_allocating_form(rng, shape, dtype):
    lam = rng.random(shape) + 0.1
    code = box_clip_code(2.0 * _draw(rng, shape, dtype), lam)
    g = _draw(rng, shape, dtype)
    want_in, want_lam = box_clip_vjp(code, g)
    lam_buf = np.full(shape, np.nan)
    g_in, g_lam = box_clip_vjp(code, g, out=lam_buf)  # input gradient over g
    assert g_in is g and g_lam is lam_buf
    assert _same_bytes(g, want_in) and _same_bytes(lam_buf, want_lam)


@pytest.mark.parametrize("shape, dtype", OUT_CASES)
def test_l2_conjugate_prox_out_matches_allocating_form(rng, shape, dtype):
    p, ax, z = (_draw(rng, shape, dtype) for _ in range(3))
    want = l2_conjugate_prox(p, ax, z, 0.37)
    out = np.full(shape, np.nan, dtype=dtype)
    assert l2_conjugate_prox(p, ax, z, 0.37, out=out) is out
    assert _same_bytes(out, want)


def test_nonneg_prox_out_matches_allocating_form(rng):
    x = rng.standard_normal((3, 4, 5))
    out = np.full(x.shape, np.nan)
    assert nonneg_prox(x, out=out) is out
    assert _same_bytes(out, nonneg_prox(x))


def _with_edge_values(x: np.ndarray, lam) -> np.ndarray:
    """``x`` with signed zeros, entries on either bound, just outside them,
    NaNs of both signs and infinities written over its first entries."""
    x = x.copy()
    flat, bound = x.reshape(-1), np.broadcast_to(lam, x.shape).reshape(-1)
    edge = [0.0, -0.0, bound[2], -bound[3], np.nextafter(bound[4], np.inf),
            np.nextafter(-bound[5], -np.inf), np.nan, -np.nan, np.inf, -np.inf]
    flat[: len(edge)] = edge
    return x


def _np_clip_box(u, lam, out=None):
    """box_clip written with np.clip, as it was before it used two ufuncs."""
    neg = -np.asarray(lam)
    if not np.iscomplexobj(u):
        return np.clip(u, neg, lam, out=out)
    if out is None:
        return np.clip(u.real, neg, lam) + 1j * np.clip(u.imag, neg, lam)
    np.clip(u.real, neg, lam, out=out.real)
    np.clip(u.imag, neg, lam, out=out.imag)
    return out


@pytest.mark.parametrize("scalar_lam", [False, True])
@pytest.mark.parametrize("shape, dtype", OUT_CASES)
def test_box_clip_matches_np_clip_byte_for_byte(rng, shape, dtype, scalar_lam):
    lam = 0.3 if scalar_lam else rng.random(shape) + 0.1
    u = np.zeros(shape, dtype=dtype)
    u.real = _with_edge_values(2.0 * rng.standard_normal(shape), lam)
    if dtype is np.complex128:
        u.imag = _with_edge_values(2.0 * rng.standard_normal(shape)[::-1], lam)
    assert _same_bytes(box_clip(u, lam), _np_clip_box(u, lam))
    want = _np_clip_box(u, lam, out=np.empty_like(u))
    out = np.full(shape, np.nan, dtype=dtype)
    assert _same_bytes(box_clip(u, lam, out=out, neg_lam=-np.asarray(lam)), want)
    box_clip(u, lam, out=u)  # in place
    assert _same_bytes(u, want)
