"""The parameter-map estimator: a small convolutional encoder/decoder whose
softplus output, scaled by a positive factor, becomes the per-voxel
regularization weight channels.

The network is expressed entirely in autodiff primitives so the same code
serves plain evaluation (throwaway tape) and end-to-end training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


@dataclass
class UNetConfig:
    rank: int = 3                # 2 for static images, 3 for dynamic
    stages: int = 2              # encoding stages (>= 1)
    convs_per_stage: int = 2
    base_filters: int = 8
    kernel: int = 3
    out_channels: int = 2        # 1, 2 or 3, matching the sharing mode
    in_channels: int = 1         # 1 real, 2 complex (re, im)
    alpha: float = 0.01          # leaky-relu negative slope
    scale: float = 0.1           # positive output scale

    def __post_init__(self):
        if self.rank not in (2, 3):
            raise ValueError("rank must be 2 or 3")
        if self.stages < 1:
            raise ValueError("need at least one stage")
        if self.out_channels not in (1, 2, 3):
            raise ValueError("out_channels must be 1, 2 or 3")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def layer_plan(self) -> list[tuple[str, int, int, int]]:
        """(name, in_ch, out_ch, kernel) for every convolution, in order."""
        f = self.base_filters
        plan = []
        ch = self.in_channels
        enc_out = []
        for s in range(self.stages):
            out = f * (2**s)
            for c in range(self.convs_per_stage):
                plan.append((f"enc{s}_conv{c}", ch, out, self.kernel))
                ch = out
            enc_out.append(out)
        for s in range(self.stages - 2, -1, -1):
            ch_in = ch + enc_out[s]  # upsampled deeper features + skip
            out = enc_out[s]
            for c in range(self.convs_per_stage):
                plan.append((f"dec{s}_conv{c}", ch_in if c == 0 else out, out, self.kernel))
            ch = out
        plan.append(("head", ch, self.out_channels, 1))
        return plan

    def pool_divisor(self) -> int:
        return 2 ** (self.stages - 1)


@dataclass
class NetWeights:
    """Ordered kernels and biases for every convolution."""

    kernels: list[np.ndarray]
    biases: list[np.ndarray]

    def flat(self) -> np.ndarray:
        parts = []
        for k, b in zip(self.kernels, self.biases):
            parts.append(k.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    def from_flat(self, flat: np.ndarray) -> "NetWeights":
        kernels, biases = [], []
        pos = 0
        for k, b in zip(self.kernels, self.biases):
            kernels.append(flat[pos : pos + k.size].reshape(k.shape).copy())
            pos += k.size
            biases.append(flat[pos : pos + b.size].reshape(b.shape).copy())
            pos += b.size
        if pos != flat.size:
            raise ValueError("flat vector does not match the weight layout")
        return NetWeights(kernels, biases)

    def copy(self) -> "NetWeights":
        return NetWeights([k.copy() for k in self.kernels], [b.copy() for b in self.biases])


def init_weights(cfg: UNetConfig, seed: int) -> NetWeights:
    """Uniform kernels in +-sqrt(1/fan_in), zero biases, and a final conv
    bias of -1 so training starts from weak regularization."""
    rng = np.random.default_rng(seed)
    kernels, biases = [], []
    plan = cfg.layer_plan()
    for _, c_in, c_out, k in plan:
        shape = (c_out, c_in) + (k,) * cfg.rank
        fan_in = c_in * k**cfg.rank
        bound = np.sqrt(1.0 / fan_in)
        kernels.append(rng.uniform(-bound, bound, size=shape))
        biases.append(np.zeros(c_out))
    biases[-1] = np.full(plan[-1][2], -1.0)
    return NetWeights(kernels, biases)


def _check_input(x0: np.ndarray, cfg: UNetConfig) -> None:
    if cfg.rank == 2:
        if x0.shape[0] != 1:
            raise ValueError("rank-2 networks take static images (nt = 1)")
        spatial = x0.shape[1:]
    else:
        spatial = x0.shape
    div = cfg.pool_divisor()
    if any(s % div for s in spatial):
        raise ValueError(f"image shape {x0.shape} is not divisible by {div}")
    want = 2 if np.iscomplexobj(x0) else 1
    if cfg.in_channels != want:
        raise ValueError(
            f"config expects {cfg.in_channels} input channels, image needs {want}"
        )


def net_forward_taped(tape: ad.Tape, x0: np.ndarray, weight_vars, cfg: UNetConfig) -> ad.Var:
    """Record the network on ``tape``; returns the positive channel maps with
    shape (out_channels, nt, nx, ny).  The input channels, ``x0`` or its
    (re, im) parts, with the time axis dropped for a rank-2 network, are
    recorded as one constant: nothing differentiates the image."""
    _check_input(x0, cfg)
    chans = np.stack([x0.real, x0.imag]) if np.iscomplexobj(x0) else x0[None]
    h = tape.constant(chans[:, 0] if cfg.rank == 2 else chans)

    layer = 0

    def conv_block(inp, n_convs):
        nonlocal layer
        out = inp
        for _ in range(n_convs):
            kw, bw = weight_vars[layer]
            out = ad.leaky_relu(ad.conv(out, kw, bw), cfg.alpha)
            layer += 1
        return out

    skips = []
    for s in range(cfg.stages):
        h = conv_block(h, cfg.convs_per_stage)
        if s < cfg.stages - 1:
            skips.append(h)
            h = ad.avg_pool2(h)
    for s in range(cfg.stages - 2, -1, -1):
        h = ad.concat_channels(ad.upsample_nearest2(h), skips[s])
        h = conv_block(h, cfg.convs_per_stage)
    kw, bw = weight_vars[layer]
    head = ad.conv(h, kw, bw)
    out = ad.scale(ad.softplus(head), cfg.scale)
    if cfg.rank == 2:
        out = tape._emit(
            out.value[:, None], (out.idx,), lambda u: (u[:, 0],), out.requires_grad
        )
    return out


def weight_leaves(tape: ad.Tape, weights: NetWeights, requires_grad: bool = True):
    return [
        (tape.leaf(k, requires_grad), tape.leaf(b, requires_grad))
        for k, b in zip(weights.kernels, weights.biases)
    ]


def net_forward(x0: np.ndarray, weights: NetWeights, cfg: UNetConfig) -> np.ndarray:
    """Plain evaluation of the channel maps (throwaway tape)."""
    tape = ad.Tape()
    wv = weight_leaves(tape, weights, requires_grad=False)
    return net_forward_taped(tape, x0, wv, cfg).value
