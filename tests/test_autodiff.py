import itertools
import time
import tracemalloc

import numpy as np
import pytest

from oracles import (
    add,
    add_scaled,
    add_scaled2,
    apply_adjoint,
    apply_forward,
    box_clip_ad,
    exp_clamped_ad,
    extrapolate,
    finite_diff_check,
    grad_field,
    grad_field_adjoint,
    l2_conj_step,
    l2_conjugate_prox,
    mul,
    reduce_sum,
)
from tvmap import autodiff as ad
from tvmap.operators import IdentityOp
from tvmap.tensors import constant_map, grad, grad_adjoint


def test_gradient_of_half_norm_squared_is_x(rng):
    x = rng.standard_normal((4, 4))
    tape = ad.Tape()
    v = tape.leaf(x)
    half = ad.scale(reduce_sum(mul(v, v)), 0.5)
    grads = tape.backward(half)
    np.testing.assert_allclose(grads[v.idx], x, atol=1e-14)


def test_mse_gradient(rng):
    a = rng.standard_normal(6)
    b = rng.standard_normal(6)
    tape = ad.Tape()
    va = tape.leaf(a)
    vb = tape.constant(b)
    loss = ad.mse(va, vb)
    grads = tape.backward(loss)
    np.testing.assert_allclose(grads[va.idx], 2 * (a - b) / 6, atol=1e-14)


def test_softplus_derivative_at_zero():
    tape = ad.Tape()
    v = tape.leaf(np.zeros(1))
    out = reduce_sum(ad.softplus(v))
    grads = tape.backward(out)
    assert grads[v.idx][0] == pytest.approx(0.5)


def test_clip_backward_piecewise():
    q = np.array([0.3, 1.5, -2.0])
    lam = np.ones(3)
    tape = ad.Tape()
    vq = tape.leaf(q)
    vl = tape.leaf(lam)
    out = reduce_sum(box_clip_ad(vq, vl))
    grads = tape.backward(out)
    np.testing.assert_array_equal(grads[vq.idx], [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(grads[vl.idx], [0.0, 1.0, -1.0])


def test_clip_forward_matches_plain(rng):
    q = rng.standard_normal((3, 2, 4, 4)) * 2
    lam = rng.random((3, 2, 4, 4)) + 0.1
    tape = ad.Tape()
    out = box_clip_ad(tape.leaf(q), tape.leaf(lam))
    np.testing.assert_array_equal(out.value, np.clip(q, -lam, lam))


def test_l2_conj_step_matches_plain(rng):
    p = rng.standard_normal(5)
    ax = rng.standard_normal(5)
    z = rng.standard_normal(5)
    tape = ad.Tape()
    out = l2_conj_step(tape.leaf(p), tape.leaf(ax), z, 0.37)
    np.testing.assert_array_equal(out.value, l2_conjugate_prox(p, ax, z, 0.37))


def test_linear_op_backward_is_adjoint(rng):
    # gradient of sum(grad(x)) must equal grad_adjoint(ones)
    x = rng.standard_normal((2, 4, 3))
    tape = ad.Tape()
    v = tape.leaf(x)
    out = reduce_sum(grad_field(v))
    grads = tape.backward(out)
    expected = grad_adjoint(np.ones((3, 2, 4, 3)))
    np.testing.assert_allclose(grads[v.idx], expected, atol=1e-14)


def test_registered_adjoint_pairs_random_probes(rng):
    # each linear primitive's vjp is its registered adjoint
    for _ in range(20):
        x = rng.standard_normal((1, 5, 4))
        u = rng.standard_normal((2, 1, 5, 4))
        tape = ad.Tape()
        v = tape.leaf(x)
        y = grad_field(v)
        node = tape.nodes[y.idx]
        (gx,) = node.vjp(u)
        lhs = np.sum(y.value * u)
        mid = np.sum(x * gx)
        assert abs(lhs - np.sum(grad(x) * u)) <= 1e-12
        assert abs(mid - np.sum(x * grad_adjoint(u))) <= 1e-12


def test_conv_matches_direct_computation(rng):
    x = rng.standard_normal((2, 5, 6))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    tape = ad.Tape()
    y = ad.conv(tape.leaf(x), tape.leaf(w), tape.leaf(b))
    xp = np.pad(x, [(0, 0), (1, 1), (1, 1)])
    expected = np.zeros((3, 5, 6))
    for o in range(3):
        for i in range(2):
            for di in range(3):
                for dj in range(3):
                    expected[o] += w[o, i, di, dj] * xp[i, di : di + 5, dj : dj + 6]
        expected[o] += b[o]
    np.testing.assert_allclose(y.value, expected, atol=1e-12)


def test_conv_gradients_match_fd(rng):
    # positive inputs and a zero target, as in the rank-3 test below: no
    # gradient coordinate sits near zero, where cancellation would meet the
    # finite-difference noise
    x = rng.uniform(0.5, 1.5, size=(1, 4, 4))
    w = rng.uniform(0.5, 1.5, size=(2, 1, 3, 3))
    b = rng.uniform(0.5, 1.5, size=2)
    t = np.zeros((2, 4, 4))

    def build(tape, leaves):
        vx, vw, vb = leaves
        return ad.mse(ad.conv(vx, vw, vb), tape.constant(t))

    err = finite_diff_check(build, [x, w, b], trials=40, seed=1)
    assert err <= 1e-8


def test_conv3d_matches_direct_computation(rng):
    # non-cubic spatial shape, so a mixed-up axis stride shows
    x = rng.standard_normal((3, 4, 5, 6))
    w = rng.standard_normal((2, 3, 3, 3, 3))
    b = rng.standard_normal(2)
    tape = ad.Tape()
    y = ad.conv(tape.leaf(x), tape.leaf(w), tape.leaf(b))
    xp = np.pad(x, [(0, 0), (1, 1), (1, 1), (1, 1)])
    expected = np.zeros((2, 4, 5, 6))
    for o in range(2):
        for i in range(3):
            for d in itertools.product(range(3), repeat=3):
                window = xp[i, d[0] : d[0] + 4, d[1] : d[1] + 5, d[2] : d[2] + 6]
                expected[o] += w[(o, i) + d] * window
        expected[o] += b[o]
    np.testing.assert_allclose(y.value, expected, atol=1e-12)


@pytest.mark.parametrize(
    "x_shape, w_shape",
    [((1, 3, 4, 5), (2, 1, 3, 3, 3)), ((3, 2, 4, 5), (2, 3, 1, 1, 1))],
    ids=["single_channel", "head_1x1x1"],
)
def test_conv3d_gradients_match_fd(rng, x_shape, w_shape):
    # positive inputs and a zero target keep every gradient coordinate away
    # from zero, so the relative error measures the VJP, not cancellation
    x = rng.uniform(0.5, 1.5, size=x_shape)
    w = rng.uniform(0.5, 1.5, size=w_shape)
    b = rng.uniform(0.5, 1.5, size=w_shape[0])
    t = np.zeros((w_shape[0],) + x_shape[1:])

    def build(tape, leaves):
        vx, vw, vb = leaves
        return ad.mse(ad.conv(vx, vw, vb), tape.constant(t))

    assert finite_diff_check(build, [x, w, b], trials=40, seed=11) <= 1e-8


def _backward_keeping_all(tape, loss):
    """The backward sweep with every interior gradient kept to the end."""
    grads = [None] * len(tape.nodes)
    grads[loss.idx] = 1.0
    for idx in range(loss.idx, -1, -1):
        node = tape.nodes[idx]
        if grads[idx] is None or node.vjp is None or not node.requires_grad:
            continue
        for pid, pg in zip(node.parents, node.vjp(grads[idx])):
            if pg is None or not tape.nodes[pid].requires_grad:
                continue
            grads[pid] = pg if grads[pid] is None else grads[pid] + pg
    return grads


def test_backward_drops_interior_gradients_bit_identically(rng):
    tape = ad.Tape()
    vx = tape.leaf(rng.standard_normal((2, 4, 6)))
    vw = tape.leaf(rng.standard_normal((3, 2, 3, 3)))
    vb = tape.leaf(rng.standard_normal(3))
    # h and q each feed two consumers; add hands one array to both its
    # parents, so accumulating in place would corrupt h's gradient
    h = ad.conv(vx, vw, vb)
    q = mul(h, tape.constant(rng.standard_normal((3, 4, 6))))
    m = ad.leaky_relu(q, 0.1)
    s = add(h, q)
    loss = ad.mse(add(s, m), tape.constant(np.zeros((3, 4, 6))))
    got = tape.backward(loss)
    want = _backward_keeping_all(tape, loss)
    assert sorted(got) == [vx.idx, vw.idx, vb.idx]
    for idx, g in got.items():
        assert np.array_equal(g, want[idx])


def test_backward_memory_stays_at_live_frontier():
    # a chain of 40 nodes of 1 MB each: keeping every interior gradient
    # would allocate 40 MB during the sweep, dropping them about 2 MB
    tape = ad.Tape()
    x = tape.leaf(np.ones(1 << 17))
    v = x
    for _ in range(40):
        v = ad.scale(v, 1.0)
    loss = reduce_sum(v)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 8 * (1 << 20)


def test_pool_and_upsample_fd(rng):
    x = rng.standard_normal((2, 4, 4))

    def build(tape, leaves):
        (vx,) = leaves
        pooled = ad.avg_pool2(vx)
        up = ad.upsample_nearest2(pooled)
        return ad.mse(up, tape.constant(np.zeros_like(x)))

    assert finite_diff_check(build, [x], trials=30, seed=2) <= 1e-7


def test_pool_shape_check():
    tape = ad.Tape()
    with pytest.raises(ValueError):
        ad.avg_pool2(tape.leaf(np.zeros((1, 5, 4))))


def test_upsample_inverts_pool_shapes(rng):
    x = rng.standard_normal((3, 4, 6, 8))
    tape = ad.Tape()
    v = tape.constant(x)
    assert ad.avg_pool2(v).value.shape == (3, 2, 3, 4)
    assert ad.upsample_nearest2(ad.avg_pool2(v)).value.shape == x.shape


def test_concat_and_split(rng):
    a = rng.standard_normal((2, 4, 4))
    b = rng.standard_normal((3, 4, 4))
    tape = ad.Tape()
    va, vb = tape.leaf(a), tape.leaf(b)
    cat = ad.concat_channels(va, vb)
    out = reduce_sum(mul(cat, cat))
    grads = tape.backward(out)
    np.testing.assert_allclose(grads[va.idx], 2 * a, atol=1e-14)
    np.testing.assert_allclose(grads[vb.idx], 2 * b, atol=1e-14)


def test_exp_clamped_counts_and_zero_grad():
    tape = ad.Tape()
    v = tape.leaf(np.array([0.0, 800.0]))
    out = reduce_sum(exp_clamped_ad(v))
    grads = tape.backward(out)
    assert grads[v.idx][0] == pytest.approx(1.0)
    assert grads[v.idx][1] == 0.0


def test_quadratic_fd_is_exact(rng):
    # coordinates bounded away from zero keep the relative error round-off only
    x = rng.uniform(0.5, 1.5, size=8)

    def build(tape, leaves):
        (v,) = leaves
        return ad.scale(reduce_sum(mul(v, v)), 0.5)

    assert finite_diff_check(build, [x], trials=16, seed=3) <= 1e-9


def test_dead_coordinate_reports_zero_error(rng):
    x = rng.standard_normal(4)

    def build(tape, leaves):
        (v,) = leaves
        # only the first coordinate matters
        mask = tape.constant(np.array([1.0, 0.0, 0.0, 0.0]))
        return reduce_sum(mul(v, mask))

    # sample every coordinate; dead ones must contribute zero error
    assert finite_diff_check(build, [x], trials=50, seed=4) <= 1e-9


def test_backward_does_not_mutate_forward_values(rng):
    x = rng.standard_normal((1, 6, 6))
    tape = ad.Tape()
    v = tape.leaf(x)
    g = grad_field(v)
    c = box_clip_ad(g, tape.leaf(constant_map(0.5, (1, 6, 6))))
    loss = ad.mse(grad_field_adjoint(c), tape.constant(np.zeros_like(x)))
    before = [np.array(n.value, copy=True) for n in tape.nodes]
    tape.backward(loss)
    for node, prev in zip(tape.nodes, before):
        np.testing.assert_array_equal(np.asarray(node.value), prev)


def test_loss_must_be_scalar(rng):
    tape = ad.Tape()
    v = tape.leaf(rng.standard_normal(3))
    with pytest.raises(ValueError):
        tape.backward(ad.scale(v, 2.0))


def test_loss_from_other_tape_rejected(rng):
    t1, t2 = ad.Tape(), ad.Tape()
    v = t2.leaf(rng.standard_normal(2))
    loss = reduce_sum(v)
    with pytest.raises(ValueError):
        t1.backward(loss)


@pytest.mark.parametrize("op", ["mse", "concat_channels", "conv"])
def test_operands_on_two_tapes_rejected_before_recording(rng, op):
    t1, t2 = ad.Tape(), ad.Tape()
    x = t1.leaf(rng.standard_normal((2, 4, 4)))
    if op == "conv":
        args = (x, t2.leaf(rng.standard_normal((3, 2, 3, 3))), t1.leaf(np.zeros(3)))
    else:
        args = (x, t2.constant(rng.standard_normal((2, 4, 4))))
    counts = (len(t1.nodes), len(t2.nodes))
    with pytest.raises(ValueError, match="operands live on different tapes"):
        getattr(ad, op)(*args)
    assert (len(t1.nodes), len(t2.nodes)) == counts


def test_requires_grad_is_set_by_the_parents(rng):
    tape = ad.Tape()
    w = tape.leaf(rng.standard_normal((1, 1, 3, 3)))
    c = tape.constant(rng.standard_normal((1, 4, 4)))
    from_constants = ad.conv(c, tape.constant(np.ones((1, 1, 3, 3))), tape.constant(np.zeros(1)))
    assert not from_constants.requires_grad
    assert ad.scale(w, 2.0).requires_grad
    reached = []
    vjp = from_constants.vjp
    from_constants.vjp = lambda u: reached.append(u) or vjp(u)
    loss = ad.mse(ad.conv(from_constants, w, tape.constant(np.zeros(1))), c)
    assert loss.requires_grad
    grads = tape.backward(loss)
    assert list(grads) == [w.idx] and reached == []
    assert tape.nodes[from_constants.idx] is from_constants


def _taped_pdhg_denoise(tape, z, lam_var, x0, T, sigma, tau, theta=1.0):
    A = IdentityOp(x0.shape)
    vz = z
    x = tape.constant(x0.copy())
    xbar = tape.constant(x0.copy())
    p = tape.constant(np.zeros_like(z))
    q = tape.constant(np.zeros_like(grad(x0)))
    for _ in range(T):
        ax = apply_forward(A, xbar)
        p = l2_conj_step(p, ax, vz, sigma)
        q = box_clip_ad(add_scaled(q, sigma, grad_field(xbar)), lam_var)
        x_new = add_scaled2(
            x, -tau, apply_adjoint(A, p), -tau, grad_field_adjoint(q)
        )
        xbar = extrapolate(x_new, x, theta)
        x = x_new
    return x


def test_unrolled_iterations_budget(rng):
    """Tape memory stays proportional to T x state size and the backward
    sweep costs no more than five forward sweeps."""
    shape = (1, 16, 16)
    z = rng.standard_normal(shape)
    x0 = z.copy()
    T = 64
    sigma = tau = 1.0 / 3.0

    def run():
        tape = ad.Tape()
        lam_var = tape.leaf(constant_map(0.2, shape))
        x = _taped_pdhg_denoise(tape, z, lam_var, x0, T, sigma, tau)
        loss = ad.mse(x, tape.constant(np.zeros_like(x0)))
        return tape, loss

    tape, loss = run()
    state_bytes = x0.nbytes + z.nbytes + grad(x0).nbytes
    assert tape.nbytes() <= 5 * T * state_bytes

    # best-of-3 timings to shrug off transient load
    fwd_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        tape, loss = run()
        fwd_times.append(time.perf_counter() - t0)
    bwd_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        tape.backward(loss)
        bwd_times.append(time.perf_counter() - t0)
    assert min(bwd_times) <= 5 * min(fwd_times)


def test_unrolled_pdhg_gradient_matches_fd(rng):
    shape = (1, 6, 6)
    z = rng.standard_normal(shape)
    target = rng.standard_normal(shape)
    lam0 = constant_map(0.25, shape)

    def build(tape, leaves):
        (lam_var,) = leaves
        x = _taped_pdhg_denoise(tape, z, lam_var, z.copy(), 6, 1.0 / 3.0, 1.0 / 3.0)
        return ad.mse(x, tape.constant(target))

    assert finite_diff_check(build, [lam0], trials=30, seed=7) <= 1e-6
