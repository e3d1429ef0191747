"""Tape-based reverse-mode differentiation for the parameter-map network.

The engine records only the primitives the network and the training loss
are built from: ``scale``, the activations, ``mse``, channel concatenation
and the convolution, pooling and upsampling layers (the tests keep further
elementwise nodes in ``tests/oracles.py``).  The network records a conv
and a leaky ReLU per ``conv`` step of its layer plan
(:meth:`tvmap.network.UNetConfig.layer_plan`), a pooling per ``pool``, an
upsampling and a concatenation per ``join``, a conv for the ``head``, then
the softplus and the scale.  Every recorded node stores its
forward value and a vector-Jacobian closure; ``Tape.backward`` walks the
nodes in strict reverse creation order, so gradient accumulation is
deterministic.  One node is recorded by training instead: the expansion
of the network's channels into the weight field
(:func:`tvmap.tensors.expand_map`) and the ``T`` unrolled iterations with
it, whose VJP is the iteration's hand-written reverse sweep followed by the
expansion's adjoint (see :func:`tvmap.training.reconstruct_taped`).  The
network's input channels are one constant node, since nothing
differentiates the image.  Values enter a tape as leaves, whose gradients
``Tape.backward`` returns, or as constants, which no gradient reaches; the
weights are leaves also on the plain forward's tape, where none runs.

Complex values are treated as pairs of reals: the gradient ``g`` of a scalar
loss with respect to a complex array ``v`` is the complex array with
``dL = Re <g, dv>``, and elementwise nodes act on real and imaginary parts
separately.

One training item of an 8x32x32 denoising problem with the two-stage,
8-filter network and ``T = 64`` records 36 nodes holding 7.77 MiB
(``Tape.nbytes``): the 14 weight leaves, the input, 18 network nodes, the
solve, the target and the MSE.  The solve node's closure
holds a further 1.5 MiB trail (24 KiB per iteration) that ``nbytes`` does
not count.  The traced peak of the whole item, forward and backward, is
19.2 MiB.
"""

from __future__ import annotations

import itertools

import numpy as np


class Node:
    __slots__ = ("value", "parents", "vjp", "requires_grad")

    def __init__(self, value, parents, vjp, requires_grad):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.requires_grad = requires_grad


class Var:
    """Handle to one recorded node."""

    __slots__ = ("tape", "idx")

    def __init__(self, tape: "Tape", idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def value(self):
        return self.tape.nodes[self.idx].value

    @property
    def requires_grad(self) -> bool:
        return self.tape.nodes[self.idx].requires_grad


class Tape:
    def __init__(self):
        self.nodes: list[Node] = []

    def _emit(self, value, parents=(), vjp=None, requires_grad=False) -> Var:
        self.nodes.append(Node(value, tuple(parents), vjp, requires_grad))
        return Var(self, len(self.nodes) - 1)

    def leaf(self, value) -> Var:
        return self._emit(value, requires_grad=True)

    def constant(self, value) -> Var:
        return self._emit(value, requires_grad=False)

    def nbytes(self) -> int:
        total = 0
        for node in self.nodes:
            if isinstance(node.value, np.ndarray):
                total += node.value.nbytes
            else:
                total += 8
        return total

    def backward(self, loss: Var) -> dict[int, np.ndarray]:
        """Gradients of a scalar ``loss`` for every requires-grad leaf,
        keyed by node index.  Accumulation order is fixed by node order.

        Every consumer of a node was created after it, so a node's gradient
        is complete when the sweep reaches it; an interior node's gradient
        is dropped as soon as its VJP has consumed it, which keeps the
        sweep's memory at the live frontier instead of the whole graph."""
        if loss.tape is not self:
            raise ValueError("loss was recorded on a different tape")
        lval = loss.value
        if isinstance(lval, np.ndarray) and lval.size != 1:
            raise ValueError("loss must be scalar")
        grads: list = [None] * len(self.nodes)
        grads[loss.idx] = 1.0
        for idx in range(loss.idx, -1, -1):
            g = grads[idx]
            node = self.nodes[idx]
            if g is None or node.vjp is None:
                continue
            if not node.requires_grad:
                continue
            grads[idx] = None
            parent_grads = node.vjp(g)
            for pid, pg in zip(node.parents, parent_grads):
                if pg is None or not self.nodes[pid].requires_grad:
                    continue
                if grads[pid] is None:
                    grads[pid] = pg
                else:
                    grads[pid] = grads[pid] + pg
        return {
            i: grads[i]
            for i, node in enumerate(self.nodes)
            if node.vjp is None
            and node.requires_grad
            and node.parents == ()
            and grads[i] is not None
        }


def _same_tape(*vars_) -> Tape:
    tape = vars_[0].tape
    for v in vars_[1:]:
        if v.tape is not tape:
            raise ValueError("operands live on different tapes")
    return tape


def _needs(*vars_) -> bool:
    return any(v.requires_grad for v in vars_)


def scale(a: Var, c: float) -> Var:
    c = float(c)
    return a.tape._emit(c * a.value, (a.idx,), lambda u: (c * u,), a.requires_grad)


def leaky_relu(x: Var, alpha: float) -> Var:
    xv = x.value
    value = np.where(xv > 0, xv, alpha * xv)

    def vjp(u):
        return (np.where(xv > 0, u, alpha * u),)

    return x.tape._emit(value, (x.idx,), vjp, x.requires_grad)


def softplus(x: Var) -> Var:
    xv = x.value
    value = np.logaddexp(0.0, xv)
    sig = 0.5 * (1.0 + np.tanh(0.5 * xv))
    return x.tape._emit(value, (x.idx,), lambda u: (sig * u,), x.requires_grad)


def mse(a: Var, b: Var) -> Var:
    """Mean squared difference; complex differences contribute |.|^2."""
    tape = _same_tape(a, b)
    diff = a.value - b.value
    n = diff.size
    value = float(np.mean(np.abs(diff) ** 2))

    def vjp(u):
        g = (2.0 / n) * diff * u
        return g, -g

    return tape._emit(value, (a.idx, b.idx), vjp, _needs(a, b))


def concat_channels(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    na = a.value.shape[0]
    value = np.concatenate([a.value, b.value], axis=0)
    return tape._emit(
        value, (a.idx, b.idx), lambda u: (u[:na], u[na:]), _needs(a, b)
    )


def conv(x: Var, w: Var, b: Var) -> Var:
    """n-d correlation with stride 1 and zero padding, plus a channel bias.

    ``x`` is (c_in, *spatial), ``w`` is (c_out, c_in, *kernel) with odd
    kernel extents, ``b`` is (c_out,).

    No im2col matrix is built.  With the padded input flattened to
    (c_in, N), kernel offset ``o`` reads the contiguous run
    ``xp[:, s_o : s_o + span]``, where ``s_o`` is the offset's flat shift
    and ``span`` the flat length that covers every output position.  The
    forward pass accumulates one GEMM per offset into an output laid out on
    the padded grid and keeps its valid positions; the VJP runs the same
    loop transposed on the zero-padded output gradient, whose padding
    entries cancel the reads that wrap across rows, and builds the input
    gradient only if ``x`` requires one.  The closure holds only the padded
    input and the kernel.
    """
    tape = _same_tape(x, w, b)
    xv, wv, bv = x.value, w.value, b.value
    c_out, c_in = wv.shape[0], wv.shape[1]
    kernel = wv.shape[2:]
    if xv.shape[0] != c_in:
        raise ValueError(f"input has {xv.shape[0]} channels, kernel expects {c_in}")
    if any(k % 2 == 0 for k in kernel):
        raise ValueError("kernel extents must be odd")
    spatial = xv.shape[1:]
    padded = tuple(s + k - 1 for s, k in zip(spatial, kernel))
    strides = [int(np.prod(padded[i + 1 :])) for i in range(len(padded))]
    shifts = [
        sum(o * st for o, st in zip(offset, strides))
        for offset in itertools.product(*[range(k) for k in kernel])
    ]
    span = sum((s - 1) * st for s, st in zip(spatial, strides)) + 1
    # the output on the padded grid: spatial[0] rows of padded[1:] planes
    grid = (c_out, spatial[0]) + padded[1:]
    valid = (slice(None),) + tuple(slice(0, s) for s in spatial)
    xf = np.pad(xv, [(0, 0)] + [(k // 2, k // 2) for k in kernel]).reshape(c_in, -1)
    wk = np.ascontiguousarray(np.moveaxis(wv.reshape(c_out, c_in, -1), 2, 0))

    acc = np.zeros((c_out, int(np.prod(grid[1:]))))
    run = acc[:, :span]
    tmp = np.empty((c_out, span))
    for wo, s in zip(wk, shifts):
        if c_in == 1:  # a GEMM with inner dimension 1 is far slower
            np.multiply(wo, xf[:, s : s + span], out=tmp)
        else:
            np.matmul(wo, xf[:, s : s + span], out=tmp)
        run += tmp
    y = acc.reshape(grid)[valid] + bv.reshape((c_out,) + (1,) * len(spatial))

    need_gx = x.requires_grad

    def vjp(u):
        ug = np.zeros(grid)
        ug[valid] = u
        ur = ug.reshape(c_out, -1)[:, :span]
        gw = np.empty(wk.shape)
        for i, s in enumerate(shifts):
            gw[i] = ur @ xf[:, s : s + span].T
        gx = None  # a constant input (the network's first layer) needs none
        if need_gx:
            gxf = np.zeros(xf.shape)
            for i, s in enumerate(shifts):
                gxf[:, s : s + span] += wk[i].T @ ur
            crop = (slice(None),) + tuple(
                slice(k // 2, k // 2 + s) for k, s in zip(kernel, spatial)
            )
            gx = gxf.reshape((c_in,) + padded)[crop]
        gb = u.reshape(c_out, -1).sum(axis=1)
        return gx, np.moveaxis(gw, 0, 2).reshape(wv.shape), gb

    return tape._emit(y, (x.idx, w.idx, b.idx), vjp, _needs(x, w, b))


def avg_pool2(x: Var) -> Var:
    """Average pooling with a factor of 2 along every spatial axis."""
    xv = x.value
    spatial = xv.shape[1:]
    if any(s % 2 for s in spatial):
        raise ValueError(f"spatial shape {spatial} is not divisible by 2")
    rank = len(spatial)
    shape = [xv.shape[0]]
    for s in spatial:
        shape.extend([s // 2, 2])
    blocks = xv.reshape(shape)
    axes = tuple(2 + 2 * i for i in range(rank))
    value = blocks.mean(axis=axes)
    inv = 1.0 / (2**rank)

    def vjp(u):
        g = u * inv
        for ax in range(1, rank + 1):
            g = np.repeat(g, 2, axis=ax)
        return (g,)

    return x.tape._emit(value, (x.idx,), vjp, x.requires_grad)


def upsample_nearest2(x: Var) -> Var:
    """Nearest-neighbour upsampling by 2 along every spatial axis."""
    xv = x.value
    rank = xv.ndim - 1
    value = xv
    for ax in range(1, rank + 1):
        value = np.repeat(value, 2, axis=ax)

    def vjp(u):
        g = u
        for ax in range(1, rank + 1):
            s = g.shape
            new = s[:ax] + (s[ax] // 2, 2) + s[ax + 1 :]
            g = g.reshape(new).sum(axis=ax + 1)
        return (g,)

    return x.tape._emit(value, (x.idx,), vjp, x.requires_grad)

