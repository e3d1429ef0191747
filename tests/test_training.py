import math
from dataclasses import replace

import numpy as np
import pytest

from tvmap import autodiff as ad
from tvmap import parallel
from tvmap.errors import NumericalError
from tvmap.network import OUTPUT_SCALE, UNetConfig, init_weights, weight_leaves
from tvmap.operators import IdentityOp, RadonOp
from tvmap.prox import KlParams
from tvmap.solvers import Problem, solve_problem
from tvmap.tensors import SharingMode, constant_map
from tvmap.training import (
    AdamState,
    TrainConfig,
    adam_step,
    batch_gradient,
    loss_taped,
    loss_value,
    reconstruct,
    reconstruct_taped,
    train,
)

from oracles import (
    estimate_weight_field,
    finite_diff_check,
    taped_reconstruct_reference,
    zero_weights,
)


@pytest.mark.parametrize("key", ["lr", "weight_decay"])
def test_train_config_rejects_nan_rates(key):
    # the benchmark and the scripts build TrainConfig without a config file
    with pytest.raises(ValueError, match=f"^{key} must be >= 0, got nan$"):
        TrainConfig(**{key: math.nan})


def denoise_problem(rng, shape=(4, 8, 8), sigma=0.2):
    x_true = np.zeros(shape)
    x_true[:, 2:6, 2:6] = 1.0
    z = x_true + sigma * rng.standard_normal(shape)
    return Problem(A=IdentityOp(shape), z=z, x_true=x_true, x0=z)


def small_cfg(**kw):
    base = dict(rank=3, stages=2, convs_per_stage=1, base_filters=4, out_channels=2)
    base.update(kw)
    return UNetConfig(**base)


def test_reconstruct_t0_returns_input(rng):
    prob = denoise_problem(rng)
    cfg = small_cfg()
    w = zero_weights(cfg)
    out = reconstruct(prob.x0, prob.z, prob.A, w, cfg, SharingMode.XY_T, 0)
    np.testing.assert_array_equal(out, prob.x0)


def test_reconstruct_zero_weights_bit_identical_to_scalar_solver(rng):
    prob = denoise_problem(rng)
    cfg = small_cfg()
    w = zero_weights(cfg)
    lam = OUTPUT_SCALE * np.log(2.0)
    ours = reconstruct(prob.x0, prob.z, prob.A, w, cfg, SharingMode.XY_T, 32)
    plain = solve_problem(prob, constant_map(lam, prob.z.shape), 32)
    assert np.array_equal(ours, plain.image)


def test_reconstruct_deterministic(rng):
    prob = denoise_problem(rng)
    cfg = small_cfg()
    w = init_weights(cfg, seed=3)
    a = reconstruct(prob.x0, prob.z, prob.A, w, cfg, SharingMode.XY_T, 16)
    b = reconstruct(prob.x0, prob.z, prob.A, w, cfg, SharingMode.XY_T, 16)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("mode", list(SharingMode), ids=lambda m: m.value)
def test_taped_reconstruct_bit_identical_to_plain(rng, mode):
    prob = denoise_problem(rng)
    cfg = small_cfg(out_channels=mode.channels)
    w = init_weights(cfg, seed=9)
    plain = reconstruct(prob.x0, prob.z, prob.A, w, cfg, mode, 12)
    tape = ad.Tape()
    wv = weight_leaves(tape, w)
    taped = reconstruct_taped(
        tape, prob.x0, prob.z, prob.A, wv, cfg, mode, 12
    )
    assert np.array_equal(taped.value, plain)


def ct_problem():
    n = 8
    op = RadonOp(n, 10, 13, side=1.0)
    kl = KlParams(mu=3.0, n0=500.0)
    x_true = np.zeros((1, n, n))
    x_true[0, 2:6, 3:6] = 0.7
    z = op.forward(x_true)
    x0 = np.maximum(op.adjoint(z) * 0.05, 0.0)
    return Problem(A=op, z=z, x_true=x_true, x0=x0, kl=kl)


def test_taped_pd3o_bit_identical_to_plain(rng):
    n = 8
    op = RadonOp(n, 10, 13, side=1.0)
    kl = KlParams(mu=3.0, n0=500.0)
    x_true = np.zeros((1, n, n))
    x_true[0, 2:6, 3:6] = 0.7
    z = op.forward(x_true)
    x0 = np.maximum(op.adjoint(z) * 0.05, 0.0)
    cfg = small_cfg(rank=2, out_channels=1, base_filters=2)
    w = init_weights(cfg, seed=4)
    prob = Problem(A=op, z=z, x_true=x_true, x0=x0, kl=kl)
    plain = reconstruct(x0, z, op, w, cfg, SharingMode.XYT, 6, kl=kl)
    tape = ad.Tape()
    wv = weight_leaves(tape, w)
    taped = reconstruct_taped(tape, x0, z, op, wv, cfg, SharingMode.XYT, 6, kl=kl)
    assert np.array_equal(taped.value, plain)
    rep = solve_problem(prob, 0.01, 6)
    assert np.min(rep.image) >= 0.0


def test_loss_perfect_reconstruction_is_zero():
    shape = (2, 8, 8)
    # a flat image with z = x0 = x_true is a fixed point of every step:
    # A x0 - z and grad x0 are exactly zero, so both duals and the descent stay 0
    x_true = np.full(shape, 0.7)
    prob = Problem(A=IdentityOp(shape), z=x_true.copy(), x_true=x_true, x0=x_true.copy())
    cfg = small_cfg()
    w = zero_weights(cfg)
    tcfg = TrainConfig(t_train=3, mode=SharingMode.XY_T, weight_decay=0.0)
    val = loss_value([prob], w, cfg, tcfg)
    assert val == 0.0


def test_loss_value_is_reconstruction_mse(rng):
    prob = denoise_problem(rng)
    cfg = small_cfg()
    w = init_weights(cfg, seed=3)
    tcfg = TrainConfig(t_train=4, mode=SharingMode.XY_T)
    rec = reconstruct(prob.x0, prob.z, prob.A, w, cfg, SharingMode.XY_T, 4)
    val = loss_value([prob], w, cfg, tcfg)
    assert val == float(np.mean((rec - prob.x_true) ** 2))


def test_loss_taped_matches_loss_value(rng):
    prob = denoise_problem(rng, shape=(2, 8, 8))
    cfg = small_cfg()
    w = init_weights(cfg, seed=2)
    tcfg = TrainConfig(t_train=6, mode=SharingMode.XY_T, weight_decay=1e-3)
    tape = ad.Tape()
    wv = weight_leaves(tape, w)
    taped = loss_taped(tape, prob, wv, cfg, tcfg)
    assert float(taped.value) == pytest.approx(loss_value([prob], w, cfg, tcfg), rel=1e-12)


def test_loss_gradient_matches_fd(rng):
    prob = denoise_problem(rng, shape=(2, 8, 8))
    cfg = small_cfg(base_filters=2, convs_per_stage=1)
    w = init_weights(cfg, seed=6)
    tcfg = TrainConfig(t_train=4, mode=SharingMode.XY_T, weight_decay=1e-3)
    arrays = []
    for k, b in zip(w.kernels, w.biases):
        arrays.extend([k, b])

    def build(tape, leaves):
        wv = [(leaves[2 * i], leaves[2 * i + 1]) for i in range(len(leaves) // 2)]
        return loss_taped(tape, prob, wv, cfg, tcfg)

    err = finite_diff_check(build, arrays, trials=30, seed=0)
    assert err <= 1e-5


def test_adam_zero_gradient_no_motion():
    cfg = TrainConfig(lr=0.1, weight_decay=0.0)
    state = AdamState.zeros(4)
    w = np.array([1.0, -2.0, 3.0, 0.5])
    out = adam_step(w, np.zeros(4), state, cfg)
    np.testing.assert_array_equal(out, w)


def test_adam_constant_gradient_asymptotic_rate():
    cfg = TrainConfig(lr=1e-3, weight_decay=0.0)
    state = AdamState.zeros(2)
    w = np.zeros(2)
    g = np.array([0.5, -2.0])
    for _ in range(3000):
        w_prev = w
        w = adam_step(w, g, state, cfg)
    step = w - w_prev
    np.testing.assert_allclose(step, -cfg.lr * np.sign(g), rtol=1e-3)


def test_adam_decay_only_shrinks_weights():
    cfg = TrainConfig(lr=0.05, weight_decay=0.1)
    state = AdamState.zeros(3)
    w = np.array([1.0, -4.0, 2.0])
    norms = [np.linalg.norm(w)]
    for _ in range(10):
        w = adam_step(w, np.zeros(3), state, cfg)
        norms.append(np.linalg.norm(w))
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_train_lr_zero_keeps_weights(rng):
    items = [denoise_problem(rng, shape=(2, 8, 8)) for _ in range(3)]
    cfg = small_cfg(base_filters=2, convs_per_stage=1)
    w0 = init_weights(cfg, seed=1)
    tcfg = TrainConfig(t_train=2, lr=0.0, epochs=2, batch_size=2, validate_every=1,
                       mode=SharingMode.XY_T)
    best, hist = train(items[:2], items[2:], w0.copy(), cfg, tcfg)
    assert np.array_equal(best.flat(), w0.flat())
    train_losses = [r[1] for r in hist[1:]]
    assert max(train_losses) - min(train_losses) <= 1e-15


def test_train_deterministic(rng):
    items = [denoise_problem(rng, shape=(2, 8, 8)) for _ in range(4)]
    cfg = small_cfg(base_filters=2, convs_per_stage=1)
    tcfg = TrainConfig(t_train=3, lr=1e-2, epochs=2, batch_size=2, validate_every=1,
                       seed=7, mode=SharingMode.XY_T)
    w0 = init_weights(cfg, seed=1)
    b1, h1 = train(items[:3], items[3:], w0.copy(), cfg, tcfg)
    b2, h2 = train(items[:3], items[3:], w0.copy(), cfg, tcfg)
    assert np.array_equal(b1.flat(), b2.flat())
    assert h1 == h2


def test_train_identical_for_one_and_two_workers(rng, monkeypatch):
    # per-item gradients from child processes are summed in batch order
    items = [denoise_problem(rng, shape=(2, 8, 8)) for _ in range(7)]
    cfg = small_cfg(base_filters=2, convs_per_stage=1)
    w0 = init_weights(cfg, seed=1)
    tcfg = TrainConfig(t_train=3, lr=1e-2, epochs=2, batch_size=3, validate_every=1,
                       seed=7, mode=SharingMode.XY_T)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        best, hist = train(items[:5], items[5:], w0.copy(), cfg, tcfg)
        runs.append((best.flat().tobytes(), np.asarray(hist).tobytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("split", ["train", "val"])
def test_train_rejects_non_finite_loss(rng, split):
    items = [denoise_problem(rng, shape=(2, 8, 8)) for _ in range(3)]
    bad = items[0] if split == "train" else items[2]
    bad.x_true[0, 0, 0] = np.inf
    cfg = small_cfg(base_filters=2, convs_per_stage=1)
    tcfg = TrainConfig(t_train=2, lr=1e-2, epochs=1, batch_size=2, validate_every=1,
                       mode=SharingMode.XY_T)
    with pytest.raises(NumericalError), np.errstate(all="ignore"):
        train(items[:2], items[2:], init_weights(cfg, seed=1), cfg, tcfg)


def test_taped_pdhg_nonfinite_guard(rng):
    # training runs the solver's iteration, so it inherits its guard
    prob = denoise_problem(rng, shape=(2, 8, 8))
    prob.z = prob.z.copy()
    prob.z[0, 3, 3] = np.nan  # the network input x0 stays finite
    cfg = small_cfg(base_filters=2, convs_per_stage=1)
    tape = ad.Tape()
    wv = weight_leaves(tape, init_weights(cfg, seed=1))
    with pytest.raises(NumericalError), np.errstate(invalid="ignore"):
        reconstruct_taped(tape, prob.x0, prob.z, prob.A, wv, cfg, SharingMode.XY_T, 3)


@pytest.mark.parametrize("head_bias", [np.inf, -1e4])
def test_bad_network_field_is_numerical_error(rng, head_bias):
    # an overflowed or underflowed map is not the user's input: exit 3, not 2
    prob = denoise_problem(rng, shape=(2, 8, 8))
    cfg = small_cfg(base_filters=2, convs_per_stage=1)
    w = init_weights(cfg, seed=1)
    w.biases[-1][:] = head_bias
    with pytest.raises(NumericalError), np.errstate(all="ignore"):
        reconstruct(prob.x0, prob.z, prob.A, w, cfg, SharingMode.XY_T, 3)
    tape = ad.Tape()
    wv = weight_leaves(tape, w)
    with pytest.raises(NumericalError), np.errstate(all="ignore"):
        reconstruct_taped(tape, prob.x0, prob.z, prob.A, wv, cfg, SharingMode.XY_T, 3)


def test_train_improves_validation(rng):
    items = [denoise_problem(rng, shape=(2, 8, 8), sigma=0.25) for _ in range(6)]
    cfg = small_cfg(base_filters=2, convs_per_stage=1)
    tcfg = TrainConfig(t_train=8, lr=5e-3, epochs=8, batch_size=2, validate_every=2,
                       seed=3, mode=SharingMode.XY_T)
    w0 = init_weights(cfg, seed=2)
    best, hist = train(items[:4], items[4:], w0, cfg, tcfg)
    first_val = hist[0][2]
    vals = [r[2] for r in hist[1:] if not np.isnan(r[2])]
    assert min(vals) < first_val


def mri_problem(rng, n=8, nt=2, nc=2):
    from tvmap.operators import MriEncoder, cg_normal_init, make_cartesian_mask, synth_coil_maps

    mag = np.zeros((nt, n, n))
    mag[:, 2:6, 2:6] = 1.0
    phase = np.exp(1j * 0.4 * np.linspace(-1, 1, n))[None, :, None]
    x_true = mag * phase
    enc = MriEncoder(synth_coil_maps(n, n, nc), make_cartesian_mask(n, n, nt, 2.0, seed=4))
    z = enc.forward(x_true)
    z = z + 0.05 * (rng.standard_normal(z.shape) + 1j * rng.standard_normal(z.shape)) / np.sqrt(2)
    z = z * enc.masks[None]
    x0 = cg_normal_init(enc, z, 3)
    return Problem(A=enc, z=z, x_true=x_true, x0=x0)


def test_taped_mri_reconstruct_bit_identical(rng):
    prob = mri_problem(rng)
    cfg = small_cfg(in_channels=2, base_filters=2, convs_per_stage=1)
    w = init_weights(cfg, seed=12)
    plain = reconstruct(prob.x0, prob.z, prob.A, w, cfg, SharingMode.XY_T, 8)
    tape = ad.Tape()
    wv = weight_leaves(tape, w)
    taped = reconstruct_taped(tape, prob.x0, prob.z, prob.A, wv, cfg, SharingMode.XY_T, 8)
    assert np.array_equal(taped.value, plain)


def test_mri_loss_gradient_matches_fd(rng):
    prob = mri_problem(rng)
    cfg = small_cfg(in_channels=2, base_filters=2, convs_per_stage=1)
    w = init_weights(cfg, seed=13)
    tcfg = TrainConfig(t_train=3, mode=SharingMode.XY_T)
    arrays = []
    for k, b in zip(w.kernels, w.biases):
        arrays.extend([k, b])

    def build(tape, leaves):
        wv = [(leaves[2 * i], leaves[2 * i + 1]) for i in range(len(leaves) // 2)]
        return loss_taped(tape, prob, wv, cfg, tcfg)

    # bottleneck kernels here have near-dead coordinates (|g| ~ 1e-9), below
    # what eps = 1e-6 differences resolve; the larger steps are exact enough
    assert finite_diff_check(build, arrays, trials=25, seed=5, eps=1e-5) <= 1e-5


def test_batch_gradient_averages(rng):
    probs = [denoise_problem(rng, shape=(2, 8, 8)) for _ in range(2)]
    cfg = small_cfg(base_filters=2, convs_per_stage=1)
    w = init_weights(cfg, seed=8)
    tcfg = TrainConfig(t_train=2, mode=SharingMode.XY_T)
    v01, g01 = batch_gradient(probs, w, cfg, tcfg)
    v0, g0 = batch_gradient(probs[:1], w, cfg, tcfg)
    v1, g1 = batch_gradient(probs[1:], w, cfg, tcfg)
    assert v01 == pytest.approx((v0 + v1) / 2)
    np.testing.assert_allclose(g01, (g0 + g1) / 2, atol=1e-14)


def test_ct_loss_gradient_matches_fd():
    prob = ct_problem()
    cfg = small_cfg(rank=2, out_channels=1, base_filters=2, convs_per_stage=1)
    w = init_weights(cfg, seed=6)
    # no weight decay: its gradient would dwarf the solver's (|g| ~ 1e-10 to
    # 1e-7 here) and hide a wrong reverse step
    tcfg = TrainConfig(t_train=4, mode=SharingMode.XYT)
    arrays = []
    for k, b in zip(w.kernels, w.biases):
        arrays.extend([k, b])

    def build(tape, leaves):
        wv = [(leaves[2 * i], leaves[2 * i + 1]) for i in range(len(leaves) // 2)]
        return loss_taped(tape, prob, wv, cfg, tcfg)

    # gradients this small sit below what eps = 1e-6 differences resolve
    err = finite_diff_check(build, arrays, trials=30, seed=0, eps=1e-5)
    assert err <= 1e-5


def _sweep_case(name, rng):
    if name == "xy_t":
        return denoise_problem(rng), small_cfg(), SharingMode.XY_T, 12
    if name == "mri":
        cfg = small_cfg(in_channels=2, base_filters=2, convs_per_stage=1)
        return mri_problem(rng), cfg, SharingMode.XY_T, 8
    return ct_problem(), small_cfg(rank=2, out_channels=1, base_filters=2), SharingMode.XYT, 6


def _weight_gradients(reconstruct_fn, prob, cfg, w, mode, T):
    tape = ad.Tape()
    wv = weight_leaves(tape, w)
    rec = reconstruct_fn(tape, prob.init_image(), prob.z, prob.A, wv, cfg, mode, T, kl=prob.kl)
    grads = tape.backward(ad.mse(rec, tape.constant(prob.x_true)))
    return rec.value, [grads[v.idx] for pair in wv for v in pair]


@pytest.mark.parametrize("case", ["xy_t", "mri", "ct"])
def test_reverse_sweep_matches_taped_reference(rng, case):
    prob, cfg, mode, T = _sweep_case(case, rng)
    w = init_weights(cfg, seed=4)
    # the reverse step of every branch the case is meant to exercise runs
    trail = []
    lam = estimate_weight_field(prob.init_image(), w, cfg, mode)
    solve_problem(prob, lam, T, trail=trail)
    codes = [entry[0] if prob.kl is not None else entry for entry in trail]
    assert any(np.any(c != 0) for c in codes)
    if case == "mri":
        assert all(c.shape == lam.shape + (2,) for c in codes)
        assert any(np.any(c[..., 1] != 0) for c in codes)
    if case == "ct":
        assert any(not np.all(pos) for _, pos, _ in trail)
    ours, g_ours = _weight_gradients(reconstruct_taped, prob, cfg, w, mode, T)
    ref, g_ref = _weight_gradients(taped_reconstruct_reference, prob, cfg, w, mode, T)
    assert np.array_equal(ours, ref)
    for a, b in zip(g_ours, g_ref):
        # entries near zero from cancellation are compared on the leaf's scale
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.max(np.abs(b)))


@pytest.mark.parametrize("case, n_nodes", [("xy_t", 36), ("mri", 36), ("ct", 37)])
def test_item_tape_holds_input_once_and_ends_at_mse(rng, case, n_nodes):
    prob, cfg, mode, _ = _sweep_case(case, rng)
    cfg = replace(cfg, convs_per_stage=2)  # the benchmark network's 7 convolutions
    tape = ad.Tape()
    wv = weight_leaves(tape, init_weights(cfg, seed=1))
    loss = loss_taped(tape, prob, wv, cfg, TrainConfig(t_train=2, mode=mode))
    # the input channels: one constant right after the weights, read by the first conv
    first = 2 * len(wv)
    x0 = prob.init_image()
    chans = np.stack([x0.real, x0.imag]) if np.iscomplexobj(x0) else x0[None]
    node = tape.nodes[first]
    assert node.parents == () and not node.requires_grad
    assert np.array_equal(node.value, chans[:, 0] if cfg.rank == 2 else chans)
    assert tape.nodes[first + 1].parents == (first, 0, 1)
    # the only other constant is the target, and the MSE of the solve is last
    last = len(tape.nodes) - 1
    assert [i for i in range(first + 1, last + 1) if not tape.nodes[i].parents] == [last - 1]
    assert loss.idx == last and tape.nodes[last].parents == (last - 2, last - 1)
    assert len(tape.nodes) == n_nodes


def test_taped_solve_is_one_node_and_trail_is_linear_in_T(rng):
    prob = denoise_problem(rng)
    cfg = small_cfg()
    w = init_weights(cfg, seed=4)
    counts = []
    for T in (4, 16):
        tape = ad.Tape()
        reconstruct_taped(tape, prob.x0, prob.z, prob.A, weight_leaves(tape, w), cfg,
                          SharingMode.XY_T, T)
        counts.append(len(tape.nodes))
    assert counts[0] == counts[1]
    lam = estimate_weight_field(prob.x0, w, cfg, SharingMode.XY_T)
    sizes = []
    for T in (5, 10, 20):
        trail = []
        solve_problem(prob, lam, T, trail=trail)
        sizes.append(sum(c.nbytes for c in trail))
    # one int8 code per dual entry per iteration, nothing else
    assert sizes == [T * lam.size for T in (5, 10, 20)]


def test_batch_gradient_memory():
    """One 8x32x32 denoising item with the benchmark network at T = 64 keeps
    its traced peak under 30 MB (the node-per-operation tape took ~78 MB)."""
    import tracemalloc

    from tvmap import experiments, network
    from tvmap.config import ExperimentConfig

    ecfg = ExperimentConfig(
        task="denoise", seed=1, nx=32, ny=32, nt=8, train_count=1, val_count=1,
        test_count=1, sigma=0.2, mode="xy_t", stages=2, filters=8, convs_per_stage=2,
    )
    items = experiments.build_split(ecfg, "train")
    net_cfg = experiments.net_config(ecfg)
    w = network.init_weights(net_cfg, seed=1)
    tcfg = TrainConfig(t_train=64, mode=SharingMode.XY_T)
    tracemalloc.start()
    try:
        batch_gradient(items, w, net_cfg, tcfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6
