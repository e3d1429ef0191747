import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvmap.tensors import (
    SharingMode,
    constant_map,
    expand_map,
    expand_map_adjoint,
    grad,
    grad_adjoint,
    ndirs,
    weighted_tv,
)

# spec'd test shapes as (nt, nx, ny)
SHAPES = [(1, 4, 4), (2, 5, 3), (4, 8, 8)]


def test_grad_of_constant_is_zero():
    for shape in SHAPES:
        g = grad(np.full(shape, 3.7))
        assert g.shape == (ndirs(shape),) + shape
        assert np.all(g == 0)


def test_grad_ramp_1d():
    x = np.arange(4.0).reshape(1, 4, 1)
    g = grad(x)
    np.testing.assert_array_equal(g[0, 0, :, 0], [1.0, 1.0, 1.0, 0.0])
    assert np.all(g[1] == 0)


def test_grad_two_pixel():
    x = np.array([0.0, 2.0]).reshape(1, 2, 1)
    np.testing.assert_array_equal(grad(x)[0, 0, :, 0], [2.0, 0.0])


def test_grad_complex_parts_differenced_independently():
    x = (np.arange(4.0) + 1j * np.arange(4.0)[::-1]).reshape(1, 4, 1)
    g = grad(x)
    np.testing.assert_array_equal(g[0].real, grad(x.real)[0])
    np.testing.assert_array_equal(g[0].imag, grad(x.imag)[0])


def test_grad_adjoint_hand_stencil():
    x = np.arange(4.0).reshape(1, 4, 1)
    g = grad(x)
    out = grad_adjoint(g)
    np.testing.assert_allclose(out[0, :, 0], [-1.0, 0.0, 0.0, 1.0], atol=1e-15)


def test_adjoint_identity_500_random_pairs(rng):
    for shape in SHAPES:
        for _ in range(167):
            x = rng.standard_normal(shape)
            g = rng.standard_normal((ndirs(shape),) + shape)
            lhs = np.sum(grad(x) * g)
            rhs = np.sum(x * grad_adjoint(g))
            bound = 1e-10 * np.linalg.norm(x.ravel()) * np.linalg.norm(g.ravel())
            assert abs(lhs - rhs) <= bound


def test_adjoint_identity_complex(rng):
    shape = (2, 5, 3)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    g = rng.standard_normal((3,) + shape) + 1j * rng.standard_normal((3,) + shape)
    lhs = np.vdot(g, grad(x))
    rhs = np.vdot(grad_adjoint(g), x)
    assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x.ravel()) * np.linalg.norm(g.ravel())


def test_zero_field_maps_to_zero():
    assert np.all(grad_adjoint(np.zeros((2, 1, 3, 3))) == 0)


def test_weighted_tv_examples():
    x = np.array([0.0, 1.0]).reshape(1, 2, 1)
    assert weighted_tv(x, 2.0) == pytest.approx(2.0)
    xi = np.array([0.0, 1.0j]).reshape(1, 2, 1)
    assert weighted_tv(xi, 1.0) == pytest.approx(1.0)
    assert weighted_tv(np.full((2, 4, 4), 5.0), 3.0) == 0.0


def test_weighted_tv_shape_mismatch():
    x = np.zeros((1, 4, 4))
    with pytest.raises(ValueError):
        weighted_tv(x, np.ones((3, 1, 4, 4)))


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(min_value=0.01, max_value=100.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_weighted_tv_homogeneous_in_weights(alpha, seed):
    r = np.random.default_rng(seed)
    x = r.standard_normal((2, 4, 3))
    lam = np.abs(r.standard_normal((3, 2, 4, 3))) + 0.1
    assert weighted_tv(x, alpha * lam) == pytest.approx(alpha * weighted_tv(x, lam))


def test_weighted_tv_scalar_reduction(rng):
    x = rng.standard_normal((2, 4, 4))
    lam = 0.37
    assert weighted_tv(x, lam) == pytest.approx(lam * weighted_tv(x, 1.0))


def test_expand_map_modes(rng):
    dyn = rng.random((3, 2, 4, 4)) + 0.1
    one = expand_map(dyn[:1], SharingMode.XYT)
    assert one.shape == (3, 2, 4, 4)
    assert np.all(one[0] == one[1]) and np.all(one[1] == one[2])
    two = expand_map(dyn[:2], SharingMode.XY_T)
    np.testing.assert_array_equal(two[0], dyn[0])
    np.testing.assert_array_equal(two[1], dyn[0])
    np.testing.assert_array_equal(two[2], dyn[1])
    three = expand_map(dyn, SharingMode.X_Y_T)
    np.testing.assert_array_equal(three, dyn)


def test_expand_map_static():
    ch = np.ones((1, 1, 4, 4))
    out = expand_map(ch, SharingMode.XYT)
    assert out.shape == (2, 1, 4, 4)
    with pytest.raises(ValueError):
        expand_map(np.ones((2, 1, 4, 4)), SharingMode.XY_T)
    with pytest.raises(ValueError):
        expand_map_adjoint(np.ones((2, 1, 4, 4)), SharingMode.XY_T)


def test_expand_map_count_mismatch():
    with pytest.raises(ValueError):
        expand_map(np.ones((2, 2, 4, 4)), SharingMode.XYT)
    with pytest.raises(ValueError):
        expand_map(np.ones((1, 2, 4, 4)), SharingMode.X_Y_T)


@pytest.mark.parametrize(
    "mode, shape",
    [(SharingMode.XYT, (1, 4, 5)), (SharingMode.XYT, (3, 4, 5)),
     (SharingMode.XY_T, (3, 4, 5)), (SharingMode.X_Y_T, (3, 4, 5))],
    ids=["xyt_static", "xyt", "xy_t", "x_y_t"],
)
def test_expand_map_adjoint(rng, mode, shape):
    c = rng.standard_normal((mode.channels,) + shape)
    g = rng.standard_normal((ndirs(shape),) + shape)
    back = expand_map_adjoint(g, mode)
    assert back.shape == c.shape
    assert np.vdot(expand_map(c, mode), g) == pytest.approx(np.vdot(c, back), rel=1e-12)


@pytest.mark.parametrize("mode", list(SharingMode), ids=lambda m: f"SharingMode.{m.name}")
def test_direction_channel_table_drives_expansion(rng, mode):
    # direction d reads channel table[d]; the adjoint sums a channel's
    # directions in direction order, bit for bit
    table = mode.direction_channels(3)
    assert mode.channels == len(set(table)) == max(table) + 1
    c = rng.standard_normal((mode.channels, 2, 4, 4))
    field = expand_map(c, mode)
    assert all(np.array_equal(field[d], c[k]) for d, k in enumerate(table))
    g = rng.standard_normal((3, 2, 4, 4))
    back = expand_map_adjoint(g, mode)
    for k in range(mode.channels):
        rows = [g[d] for d, j in enumerate(table) if j == k]
        assert np.array_equal(back[k], sum(rows[1:], rows[0]))
    if mode is SharingMode.XYT:
        assert np.array_equal(back[0], np.sum(g, axis=0))


def test_constant_map():
    m = constant_map(0.5, (2, 3, 3))
    assert m.shape == (3, 2, 3, 3)
    assert np.all(m == 0.5)
    with pytest.raises(ValueError):
        constant_map(0.0, (1, 3, 3))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_constant_map_rejects_non_finite(value):
    # NaN <= 0 is False, so a sign test alone lets NaN through
    with pytest.raises(ValueError):
        constant_map(value, (1, 3, 3))


def _draw(rng, shape, dtype):
    x = rng.standard_normal(shape)
    if dtype is np.complex128:
        x = x + 1j * rng.standard_normal(shape)
    return x


# static (q = 2) and dynamic (q = 3) images, real and complex
OUT_CASES = [(shape, dtype) for shape in [(1, 5, 4), (3, 6, 5)]
             for dtype in (np.float64, np.complex128)]


@pytest.mark.parametrize("shape, dtype", OUT_CASES)
def test_grad_out_matches_allocating_form(rng, shape, dtype):
    # the NaN fill shows that every entry, trailing edges included, is written
    x = _draw(rng, shape, dtype)
    out = np.full((ndirs(shape),) + shape, np.nan, dtype=dtype)
    assert grad(x, out=out) is out
    assert out.tobytes() == grad(x).tobytes()
    for bad in (np.empty((1,) + shape, dtype=dtype), np.empty(out.shape, dtype=dtype, order="F")):
        with pytest.raises(ValueError):
            grad(x, out=bad)


@pytest.mark.parametrize("shape, dtype", OUT_CASES)
def test_grad_adjoint_out_matches_allocating_form(rng, shape, dtype):
    g = _draw(rng, (ndirs(shape),) + shape, dtype)
    out = np.full(shape, np.nan, dtype=dtype)
    assert grad_adjoint(g, out=out) is out
    assert out.tobytes() == grad_adjoint(g).tobytes()
    for bad in (np.empty(shape[1:], dtype=dtype), np.empty(shape, dtype=dtype, order="F")):
        with pytest.raises(ValueError):
            grad_adjoint(g, out=bad)


def _grad_rows(x):
    """grad as numpy's row-by-row strided differences, from zeros."""
    g = np.zeros((ndirs(x.shape),) + x.shape, dtype=x.dtype)
    g[0, :, :-1, :] = x[:, 1:, :] - x[:, :-1, :]
    g[1, :, :, :-1] = x[:, :, 1:] - x[:, :, :-1]
    if g.shape[0] == 3:
        g[2, :-1, :, :] = x[1:, :, :] - x[:-1, :, :]
    return g


def _grad_adjoint_rows(g):
    """grad_adjoint as zeros, then -= and += per direction, row by row."""
    out = np.zeros(g.shape[1:], dtype=g.dtype)
    out[:, :-1, :] -= g[0, :, :-1, :]
    out[:, 1:, :] += g[0, :, :-1, :]
    out[:, :, :-1] -= g[1, :, :, :-1]
    out[:, :, 1:] += g[1, :, :, :-1]
    if g.shape[0] == 3:
        out[:-1, :, :] -= g[2, :-1, :, :]
        out[1:, :, :] += g[2, :-1, :, :]
    return out


@pytest.mark.parametrize("shape, dtype", OUT_CASES)
def test_flat_y_pass_matches_row_by_row_differences(rng, shape, dtype):
    # the y direction runs as one contiguous pass (for grad_adjoint, when
    # the field's trailing y edge is zero); byte for byte, signed zeros and
    # non-contiguous inputs included, it equals the row-by-row formulas
    x = _draw(rng, shape, dtype)
    x[rng.random(shape) < 0.2] = -0.0
    assert grad(x).tobytes() == _grad_rows(x).tobytes()
    assert grad(x[:, ::-1, :]).tobytes() == _grad_rows(x[:, ::-1, :]).tobytes()
    g = _draw(rng, (ndirs(shape),) + shape, dtype)
    g[rng.random(g.shape) < 0.2] = 0.0
    g[rng.random(g.shape) < 0.2] = -0.0
    assert grad_adjoint(g).tobytes() == _grad_adjoint_rows(g).tobytes()
    g[1, :, :, -1] = np.where(rng.random(shape[:2]) < 0.5, 0.0, -0.0)
    assert grad_adjoint(g).tobytes() == _grad_adjoint_rows(g).tobytes()
    assert grad_adjoint(np.asfortranarray(g)).tobytes() == _grad_adjoint_rows(g).tobytes()
