"""End-to-end training of the parameter-map network through the unrolled
solver.

Evaluation (:func:`reconstruct`) and gradients (:func:`reconstruct_taped`)
run the same solver iteration, so with identical weights the two are
bit-identical.  The taped path records the network on an autodiff tape and
the channel expansion with the whole unrolled solve as a single node, whose
VJP is the iteration's hand-written reverse sweep (the ``reverse`` of the
report :func:`tvmap.solvers.solve_problem` returns given a trail) followed
by the expansion's adjoint.

The training objective is the mean squared error of the ``T``-step
reconstruction.  :func:`loss_taped` records one item's on its own tape: the
weight leaves, the input channels as one constant, the network, the solve
node, the target and the MSE, 36 nodes for the two-stage network with two
convolutions per stage (37 for CT, whose rank-2 network adds the time axis
back).  :func:`batch_gradient` averages the items' leaf gradients, and
:func:`loss_value` evaluates the objective for validation.  Weight decay is
not part of it; :func:`adam_step` applies it decoupled from the gradient.

The items of a batch, of a validation pass and of an evaluation are mapped
over processes with :func:`tvmap.parallel.pmap` and combined in item order,
so every result is the same for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import NumericalError
from .network import NetWeights, UNetConfig, net_forward, net_forward_taped, weight_leaves
from .operators import LinearOperator
from .parallel import pmap
from .prox import KlParams
from .solvers import Problem, solve_problem
from .tensors import SharingMode, expand_map, expand_map_adjoint

# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    t_train: int = 64
    t_test: int = 256
    lr: float = 1e-3
    weight_decay: float = 0.0
    epochs: int = 40
    batch_size: int = 4
    validate_every: int = 2
    seed: int = 0
    mode: SharingMode = SharingMode.XY_T

    def __post_init__(self):
        if self.t_train < 1:
            raise ValueError("t_train must be >= 1")
        if self.lr < 0:
            raise ValueError("learning rate must be >= 0")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.validate_every < 1:
            raise ValueError(f"validate_every must be >= 1, got {self.validate_every}")


def _checked_field(lam: np.ndarray) -> np.ndarray:
    # weights read from files are finite, so a map that is not finite and
    # positive comes from overflowed weights or an underflowed softplus
    if not np.all(np.isfinite(lam) & (lam > 0)):
        raise NumericalError("network weight field is not finite and positive")
    return lam


def reconstruct(
    x0: np.ndarray,
    z: np.ndarray,
    A: LinearOperator,
    weights: NetWeights,
    net_cfg: UNetConfig,
    mode: SharingMode,
    T: int,
    kl: KlParams | None = None,
):
    """Estimate the weight field from ``x0`` and run ``T`` solver iterations
    with it held fixed.  ``T = 0`` returns ``x0`` unchanged."""
    if T == 0:
        return x0.copy()
    lam = _checked_field(expand_map(net_forward(x0, weights, net_cfg), mode))
    return solve_problem(Problem(A=A, z=z, x0=x0, kl=kl), lam, T).image


def reconstruct_taped(
    tape: ad.Tape,
    x0: np.ndarray,
    z: np.ndarray,
    A: LinearOperator,
    weight_vars,
    net_cfg: UNetConfig,
    mode: SharingMode,
    T: int,
    kl: KlParams | None = None,
) -> ad.Var:
    """Differentiable twin of :func:`reconstruct` on an explicit tape: the
    network is recorded node by node, the channel expansion and the ``T``
    solver iterations as one node whose VJP walks the iteration's trail
    backwards and folds the field's gradient back onto the channels."""
    chans = net_forward_taped(tape, x0, weight_vars, net_cfg)
    rep = solve_problem(Problem(A=A, z=z, x0=x0, kl=kl),
                        _checked_field(expand_map(chans.value, mode)), T, trail=[])
    return tape._emit(rep.image, (chans.idx,),
                      lambda u: (expand_map_adjoint(rep.reverse(u), mode),),
                      chans.requires_grad)


def loss_taped(
    tape: ad.Tape,
    prob: Problem,
    weight_vars,
    net_cfg: UNetConfig,
    cfg: TrainConfig,
) -> ad.Var:
    """Reconstruction MSE of one item after ``cfg.t_train`` iterations,
    recorded on ``tape`` (the differentiable training objective)."""
    rec = reconstruct_taped(tape, prob.init_image(), prob.z, prob.A, weight_vars, net_cfg,
                            cfg.mode, cfg.t_train, kl=prob.kl)
    return ad.mse(rec, tape.constant(prob.x_true))


def loss_value(
    batch: list[Problem],
    weights: NetWeights,
    net_cfg: UNetConfig,
    cfg: TrainConfig,
    T: int | None = None,
) -> float:
    """Plain (numpy-path) evaluation of the training objective, the
    validation loss of :func:`train`."""
    if not batch:
        raise ValueError("empty batch")
    T = cfg.t_train if T is None else T

    def item_mse(prob: Problem) -> float:
        rec = reconstruct(
            prob.init_image(), prob.z, prob.A, weights, net_cfg, cfg.mode, T, kl=prob.kl
        )
        return float(np.mean(np.abs(rec - prob.x_true) ** 2))

    return float(np.mean(pmap(item_mse, batch)))


def batch_gradient(
    batch: list[Problem],
    weights: NetWeights,
    net_cfg: UNetConfig,
    cfg: TrainConfig,
) -> tuple[float, np.ndarray]:
    """Mean MSE and its flat gradient.  Items use separate tapes, so memory
    scales with one unrolled solve; they run on :func:`pmap`'s processes and
    are reduced in batch order, so the result does not depend on their count."""

    def item_gradient(prob: Problem) -> tuple[float, np.ndarray]:
        tape = ad.Tape()
        wv = weight_leaves(tape, weights)
        item = loss_taped(tape, prob, wv, net_cfg, cfg)
        grads = tape.backward(item)
        flat = np.concatenate([grads[v.idx].ravel() for pair in wv for v in pair])
        return float(item.value), flat

    per_item = pmap(item_gradient, batch)
    grad_flat = np.zeros(weights.flat().size)
    total = 0.0
    for value, g in per_item:
        grad_flat += g
        total += value
    n = len(batch)
    # checked before the optimizer sees them: one NaN poisons every weight
    if not (np.isfinite(total) and np.all(np.isfinite(grad_flat))):
        raise NumericalError(f"non-finite training loss or gradient (loss {total / n})")
    return total / n, grad_flat / n


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n))


def adam_step(
    flat: np.ndarray, grad_flat: np.ndarray, state: AdamState, cfg: TrainConfig
) -> np.ndarray:
    """One Adam update with bias correction; weight decay (when set) is
    applied decoupled from the moment estimates."""
    state.t += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad_flat
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad_flat**2
    m_hat = state.m / (1.0 - ADAM_BETA1**state.t)
    v_hat = state.v / (1.0 - ADAM_BETA2**state.t)
    out = flat - cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    if cfg.weight_decay > 0:
        out = out - cfg.lr * cfg.weight_decay * flat
    return out


def train(
    train_items: list[Problem],
    val_items: list[Problem],
    weights: NetWeights,
    net_cfg: UNetConfig,
    cfg: TrainConfig,
) -> tuple[NetWeights, list[tuple[int, float, float]]]:
    """Shuffled mini-batch epochs with periodic validation; returns the
    checkpoint with the lowest validation MSE and the loss history as
    ``(epoch, train_loss, val_loss)`` rows from epoch 0, NaN where a loss
    was not measured."""
    if not train_items or not val_items:
        raise ValueError("need non-empty train and validation splits")
    rng = np.random.default_rng(cfg.seed)
    flat = weights.flat()
    state = AdamState.zeros(flat.size)
    history = []
    best_flat = flat.copy()

    def val_loss(w: NetWeights) -> float:
        v = loss_value(val_items, w, net_cfg, cfg)
        if not np.isfinite(v):
            raise NumericalError(f"non-finite validation loss {v}")
        return v

    current = weights
    v0 = val_loss(current)
    best_val = v0
    history.append((0, np.nan, v0))
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_items))
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_items[i] for i in order[start : start + cfg.batch_size]]
            value, grad_flat = batch_gradient(batch, current, net_cfg, cfg)
            epoch_losses.append(value)
            flat = adam_step(flat, grad_flat, state, cfg)
            current = weights.from_flat(flat)
        if epoch % cfg.validate_every == 0 or epoch == cfg.epochs:
            v = val_loss(current)
            history.append((epoch, float(np.mean(epoch_losses)), v))
            if v < best_val:
                best_val = v
                best_flat = flat.copy()
        else:
            history.append((epoch, float(np.mean(epoch_losses)), np.nan))
    return weights.from_flat(best_flat), history


def evaluate(
    items: list[Problem],
    weights: NetWeights,
    net_cfg: UNetConfig,
    mode: SharingMode,
    T: int,
):
    """Per-item (psnr, nrmse, ssim) of the learned-map reconstructions, the
    items mapped over :func:`pmap`'s processes."""
    from .metrics import nrmse, psnr, ssim

    def row(prob: Problem):
        rec = reconstruct(
            prob.init_image(), prob.z, prob.A, weights, net_cfg, mode, T, kl=prob.kl
        )
        return psnr(rec, prob.x_true), nrmse(rec, prob.x_true), ssim(rec, prob.x_true)

    return pmap(row, items)
