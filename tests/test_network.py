import numpy as np
import pytest

from oracles import zero_weights
from tvmap import autodiff as ad
from tvmap.network import (
    OUTPUT_SCALE,
    NetWeights,
    UNetConfig,
    init_weights,
    net_forward,
    net_forward_taped,
    weight_leaves,
)


def small_cfg(**kw):
    base = dict(rank=3, stages=2, convs_per_stage=2, base_filters=4, out_channels=2)
    base.update(kw)
    return UNetConfig(**base)


def test_zero_weights_give_constant_softplus_output():
    cfg = small_cfg()
    w = zero_weights(cfg)
    x0 = np.random.default_rng(0).standard_normal((4, 8, 8))
    out = net_forward(x0, w, cfg)
    assert out.shape == (2, 4, 8, 8)
    np.testing.assert_allclose(out, OUTPUT_SCALE * np.log(2.0), atol=1e-15)


def test_paper_scale_value():
    cfg = small_cfg(out_channels=1)
    w = zero_weights(cfg)
    out = net_forward(np.zeros((2, 4, 4)), w, cfg)
    np.testing.assert_allclose(out, 0.1 * np.log(2.0), atol=1e-12)
    assert out[0, 0, 0, 0] == pytest.approx(0.0693147, abs=1e-6)


def test_output_positive_for_random_weights():
    cfg = small_cfg()
    rng = np.random.default_rng(3)
    for seed in range(100):
        w = init_weights(cfg, seed=seed)
        x0 = rng.standard_normal((2, 8, 8)) * 3
        out = net_forward(x0, w, cfg)
        assert np.all(out > 0)


def test_complex_input_two_channels():
    cfg = small_cfg(in_channels=2, out_channels=2)
    w = init_weights(cfg, seed=1)
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((2, 8, 8)) + 1j * rng.standard_normal((2, 8, 8))
    out = net_forward(x0, w, cfg)
    assert out.shape == (2, 2, 8, 8)
    assert np.isrealobj(out)
    assert np.all(out > 0)


def test_rank2_static_images():
    cfg = small_cfg(rank=2, out_channels=1)
    w = init_weights(cfg, seed=2)
    out = net_forward(np.random.default_rng(2).standard_normal((1, 8, 8)), w, cfg)
    assert out.shape == (1, 1, 8, 8)
    with pytest.raises(ValueError):
        net_forward(np.zeros((3, 8, 8)), w, cfg)


def test_shape_divisibility_error():
    cfg = small_cfg(stages=3)
    w = init_weights(cfg, seed=0)
    with pytest.raises(ValueError):
        net_forward(np.zeros((4, 10, 8)), w, cfg)


def test_input_channel_mismatch():
    cfg = small_cfg(in_channels=1)
    w = init_weights(cfg, seed=0)
    with pytest.raises(ValueError):
        net_forward(np.zeros((2, 8, 8), dtype=complex), w, cfg)


def test_init_reproducible_and_final_bias():
    cfg = small_cfg()
    w1 = init_weights(cfg, seed=11)
    w2 = init_weights(cfg, seed=11)
    assert np.array_equal(w1.flat(), w2.flat())
    assert not np.array_equal(w1.flat(), init_weights(cfg, seed=12).flat())
    np.testing.assert_array_equal(w1.biases[-1], -1.0)
    for b in w1.biases[:-1]:
        np.testing.assert_array_equal(b, 0.0)


def test_init_kernel_bounds():
    cfg = small_cfg()
    w = init_weights(cfg, seed=4)
    for (name, c_in, c_out, k), kern in zip(cfg.convs(), w.kernels):
        bound = np.sqrt(1.0 / (c_in * k**cfg.rank))
        assert np.max(np.abs(kern)) <= bound


def test_flat_roundtrip():
    cfg = small_cfg()
    w = init_weights(cfg, seed=5)
    flat = w.flat()
    back = w.from_flat(flat)
    assert np.array_equal(back.flat(), flat)
    with pytest.raises(ValueError):
        w.from_flat(flat[:-1])


def test_layer_plan_channels():
    cfg = UNetConfig(rank=2, stages=2, convs_per_stage=2, base_filters=8,
                     out_channels=1, in_channels=1)
    plan = cfg.convs()
    assert plan[0][1:] == (1, 8, 3)
    assert plan[1][1:] == (8, 8, 3)
    assert plan[2][1:] == (8, 16, 3)
    assert plan[3][1:] == (16, 16, 3)
    assert plan[4][1:] == (24, 8, 3)   # upsampled 16 + skip 8
    assert plan[5][1:] == (8, 8, 3)
    assert plan[-1][1:] == (8, 1, 1)


@pytest.mark.parametrize("key", ["stages", "convs_per_stage", "base_filters"])
def test_config_requires_one_of_each(key):
    # zero convs per stage would leave a head-only network, zero filters empty convs
    with pytest.raises(ValueError, match=f"{key} must be >= 1, got 0"):
        UNetConfig(**{key: 0})


def test_layer_plan_steps():
    # each stage after the first pools first; the decoder joins the skips back
    cfg = UNetConfig(rank=3, stages=3, convs_per_stage=1, base_filters=4,
                     out_channels=2, in_channels=2)
    assert cfg.layer_plan() == [
        ("conv", 2, 4, 3), ("pool",), ("conv", 4, 8, 3), ("pool",), ("conv", 8, 16, 3),
        ("join",), ("conv", 24, 8, 3), ("join",), ("conv", 12, 4, 3), ("head", 4, 2, 1),
    ]


@pytest.mark.parametrize("rank, shape", [(2, (1, 8, 8)), (3, (4, 8, 8))])
def test_constant_input_leaf_gradients_match_full_sweep(rank, shape):
    # the first conv builds no input gradient for a constant input; the
    # weight gradients must equal those of a sweep that does build it
    cfg = small_cfg(rank=rank, out_channels=1 if rank == 2 else 2)
    w = init_weights(cfg, seed=5)
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal(shape)
    target = rng.standard_normal((cfg.out_channels,) + shape)
    sweeps = []
    for input_grad in (False, True):
        tape = ad.Tape()
        wv = weight_leaves(tape, w)
        if input_grad:  # the input channels, recorded next, become a leaf
            tape.constant = tape.leaf
        out = net_forward_taped(tape, x0, wv, cfg)
        grads = tape.backward(ad.mse(out, tape.constant(target)))
        assert (2 * len(wv) in grads) == input_grad
        sweeps.append([grads[v.idx] for pair in wv for v in pair])
    for skipped, full in zip(*sweeps):
        assert skipped.tobytes() == full.tobytes()
