"""The parameter-map estimator: a small convolutional encoder/decoder whose
softplus output, scaled by a positive factor, becomes the per-voxel
regularization weight channels.

:meth:`UNetConfig.layer_plan`, every step of the forward with each
convolution's channels, is the one topology: :func:`net_forward_taped`
walks it once; :func:`init_weights` and the checkpoint reader read its convs.

The network is expressed entirely in autodiff primitives so the same code
serves plain evaluation and end-to-end training: both record the weights
as leaves (:func:`weight_leaves`) and the input as a constant, and plain
evaluation reads the output off a throwaway tape that no backward sweep
reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .tensors import SharingMode

KERNEL = 3           # convolution size along each axis (the head is 1x1)
LEAK = 0.01          # leaky-relu negative slope
OUTPUT_SCALE = 0.1   # the softplus output is scaled by this positive factor


@dataclass
class UNetConfig:
    rank: int = 3                # 2 for static images, 3 for dynamic
    stages: int = 2              # encoding stages (>= 1)
    convs_per_stage: int = 2
    base_filters: int = 8
    out_channels: int = 2        # 1, 2 or 3, matching the sharing mode
    in_channels: int = 1         # 1 real, 2 complex (re, im)

    def __post_init__(self):
        if self.rank not in (2, 3):
            raise ValueError("rank must be 2 or 3")
        for key in ("stages", "convs_per_stage", "base_filters"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.out_channels not in [m.channels for m in SharingMode]:
            raise ValueError("out_channels must be 1, 2 or 3")

    def layer_plan(self) -> list[tuple]:
        """Every step of the forward, in order: ``("conv", in_ch, out_ch,
        KERNEL)`` a convolution and a leaky ReLU; ``("pool",)`` keep the input
        as a skip, then pool; ``("join",)`` upsample, then append the last
        skip kept; ``("head", in_ch, out_ch, 1)`` the final convolution."""
        plan, ch, skips = [], self.in_channels, []
        for s in range(self.stages):
            if s:
                plan.append(("pool",))
                skips.append(ch)
            out = self.base_filters * 2**s
            for _ in range(self.convs_per_stage):
                plan.append(("conv", ch, out, KERNEL))
                ch = out
        while skips:
            plan.append(("join",))
            ch, out = ch + skips[-1], skips.pop()
            for _ in range(self.convs_per_stage):
                plan.append(("conv", ch, out, KERNEL))
                ch = out
        plan.append(("head", ch, self.out_channels, 1))
        return plan

    def convs(self) -> list[tuple[str, int, int, int]]:
        """The ``conv`` and ``head`` steps of :meth:`layer_plan`, in order."""
        return [step for step in self.layer_plan() if step[0] in ("conv", "head")]

    def check_pooling(self, shape: tuple[int, ...]) -> None:
        """Raise unless the network can pool images of ``shape`` (nt, nx, ny)
        ``stages - 1`` times: every pooled size, nt too at rank 3, must
        divide by ``2 ** (stages - 1)``."""
        div = 2 ** (self.stages - 1)
        if any(s % div for s in (shape[1:] if self.rank == 2 else shape)):
            raise ValueError(f"stages = {self.stages} needs image sizes divisible by {div}, "
                             f"the image is {shape}")


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
    for _, c_in, c_out, k in cfg.convs():
        shape = (c_out, c_in) + (k,) * cfg.rank
        fan_in = c_in * k**cfg.rank
        bound = np.sqrt(1.0 / fan_in)
        kernels.append(rng.uniform(-bound, bound, size=shape))
        biases.append(np.zeros(c_out))
    biases[-1] = np.full(cfg.out_channels, -1.0)
    return NetWeights(kernels, biases)


def _check_input(x0: np.ndarray, cfg: UNetConfig) -> None:
    if cfg.rank == 2 and x0.shape[0] != 1:
        raise ValueError("rank-2 networks take static images (nt = 1)")
    cfg.check_pooling(x0.shape)
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

    weights, skips = iter(weight_vars), []
    for step in cfg.layer_plan():
        if step[0] == "pool":
            skips.append(h)
            h = ad.avg_pool2(h)
        elif step[0] == "join":
            h = ad.concat_channels(ad.upsample_nearest2(h), skips.pop())
        else:
            h = ad.conv(h, *next(weights))
            if step[0] == "conv":
                h = ad.leaky_relu(h, LEAK)
    out = ad.scale(ad.softplus(h), OUTPUT_SCALE)
    if cfg.rank == 2:
        out = tape._emit(
            out.value[:, None], (out.idx,), lambda u: (u[:, 0],), out.requires_grad
        )
    return out


def weight_leaves(tape: ad.Tape, weights: NetWeights):
    return [(tape.leaf(k), tape.leaf(b)) for k, b in zip(weights.kernels, weights.biases)]


def net_forward(x0: np.ndarray, weights: NetWeights, cfg: UNetConfig) -> np.ndarray:
    """Plain evaluation of the channel maps, recorded on a throwaway tape
    that no backward sweep reads."""
    tape = ad.Tape()
    return net_forward_taped(tape, x0, weight_leaves(tape, weights), cfg).value
