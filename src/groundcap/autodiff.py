"""Reverse-mode automatic differentiation on float64 numpy arrays.

A Tensor wraps an ndarray. ``parameter(array)`` makes a leaf that needs a
gradient; ``node`` records an operation's result, with a backward closure
over its parents, whenever one of those parents needs a gradient.
``backward(loss, params)`` runs the reversed topological sweep from a
scalar loss and returns one gradient array per entry of ``params``, a
name -> parameter dict (exact zeros for parameters the loss never touched).

Tensors are treated as immutable once produced. A graph is single-owner:
build it, call backward once, throw it away. Backward frees each node's
closure and parent links as it passes, so the graph cannot be
backpropagated again.

Fused ops have a hand-derived backward, checked by finite differences in
the tests, and run their array math in ``kernels``. ``node`` is how a layer
outside this module adds its own fused op: ``model.teacher_forced_logprob``,
the whole teacher-forced decoder over all time steps, is one node.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import kernels
from .errors import ContractError, ShapeError

class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = False
        self._parents: tuple[Tensor, ...] = ()
        self._bwd: Callable | None = None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def parameter(array) -> Tensor:
    """A leaf that needs a gradient; ``backward`` returns that gradient under
    the leaf's name in ``params``."""
    t = Tensor(array)
    t.requires_grad = True
    return t


def node(data, parents: Sequence[Tensor], bwd) -> Tensor:
    """A tensor of ``data``; ``bwd(g)`` returns one gradient (or None) per
    parent. Recorded only if a parent needs a gradient."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._bwd = bwd
    return out


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        tensor, expanded = stack.pop()
        if expanded:
            order.append(tensor)
            continue
        if id(tensor) in seen:
            continue
        seen.add(id(tensor))
        stack.append((tensor, True))
        for p in tensor._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every tensor of ``params``, by name.

    The sweep frees the graph as it goes: once a node's backward has run,
    the node drops its gradient, its backward closure (and with it every
    forward array the closure kept) and its links to its parents, so a
    step holds only the caches that backward has still to read. Each
    parameter's gradient is handed over, not copied, and the parameter
    keeps none. A graph can therefore be backpropagated only once: a
    second ``backward`` through any of its spent nodes is a ContractError,
    and so is a leaf that needs a gradient but is not in ``params``, or a
    tensor that ``params`` holds under two names.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("loss must be a Tensor")
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.data.shape}")
    leaves = {id(p) for p in params.values()}
    if len(leaves) != len(params):
        raise ContractError("params holds one tensor under two names")
    if loss.requires_grad:
        loss.grad = np.ones_like(loss.data)
        order = _toposort(loss)
        while order:
            tensor = order.pop()
            if tensor._bwd is None:
                if id(tensor) not in leaves:
                    raise ContractError(
                        "backward reached a node whose graph was already backpropagated "
                        "(or a leaf needing a gradient that is not in params)"
                    )
                continue
            parents = tensor._parents
            parent_grads = () if tensor.grad is None else tensor._bwd(tensor.grad)
            # spent: the closure, and the forward arrays it kept, go before
            # the parents' gradients are summed
            tensor.grad, tensor._bwd, tensor._parents = None, None, ()
            for parent, pg in zip(parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad += pg
    grads = {}
    for name, p in params.items():
        grads[name] = p.grad if p.grad is not None else np.zeros_like(p.data)
        p.grad = None
    return grads


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return node(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return _unbroadcast(g, a.data.shape), -_unbroadcast(g, b.data.shape)

    return node(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return node(a.data * b.data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    return node(-a.data, (a,), lambda g: (-g,))


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map x @ w.T (+ b) for x (B, n), w (m, n), b (m,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(
            f"linear shapes do not chain: {x.data.shape} x {w.data.shape}^T"
        )
    out = x.data @ w.data.T
    if b is not None:
        out = out + b.data

    def bwd(g):
        grads = [g @ w.data, g.T @ x.data]
        if b is not None:
            grads.append(g.sum(axis=0))
        return tuple(grads)

    parents = (x, w) if b is None else (x, w, b)
    return node(out, parents, bwd)


def mean_(x: Tensor) -> Tensor:
    """Mean of all entries."""
    return node(x.data.mean(), (x,), lambda g: (np.full(x.data.shape, g / x.data.size),))


def relu(x: Tensor) -> Tensor:
    return node(np.maximum(x.data, 0.0), (x,), lambda g: (g * (x.data > 0.0),))


# ---------------------------------------------------------------------------
# fused ops (hand-derived backward, finite-difference checked in tests)
# ---------------------------------------------------------------------------

def lstm_cell(x: Tensor, hc_prev: Tensor, wx: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """One LSTM cell step on a packed (B, 2d) [hidden | cell] state.

    Gates: i, f, o sigmoid and g tanh from pre = x Wx^T + h Wh^T + b;
    c' = f*c + i*g, h' = o*tanh(c').
    """
    two_d = hc_prev.data.shape[1]
    d = two_d // 2
    if wx.data.shape[0] != 4 * d or wx.data.shape[1] != x.data.shape[1]:
        raise ShapeError(
            f"lstm_cell weight shape {wx.data.shape} does not match "
            f"input {x.data.shape} and state width {two_d}"
        )
    h_prev = hc_prev.data[:, :d]
    c_prev = np.ascontiguousarray(hc_prev.data[:, d:])
    gates = x.data @ wx.data.T + h_prev @ wh.data.T + b.data
    h, c, tc = kernels.lstm_gates_forward(gates, c_prev)

    def bwd(g):
        dpre = gates  # the backward writes d(pre) over the activations
        dc_prev = kernels.lstm_gates_backward(
            np.ascontiguousarray(g[:, :d]), np.ascontiguousarray(g[:, d:]), dpre, tc, c_prev
        )
        dx = dpre @ wx.data
        dwx = dpre.T @ x.data
        dh_prev = dpre @ wh.data
        dwh = dpre.T @ h_prev
        db = dpre.sum(axis=0)
        dhc = np.concatenate([dh_prev, dc_prev], axis=1)
        return dx, dhc, dwx, dwh, db

    return node(np.concatenate([h, c], axis=1), (x, hc_prev, wx, wh, b), bwd)


def attend(h1: Tensor, z: Tensor, mask: np.ndarray, wa: Tensor, wav: Tensor) -> Tensor:
    """Additive attention over object vectors with a validity mask.

    Scores e[b,k] = wav . tanh(wa @ [h1[b]; z[b,k]]); the context vector is
    the masked-softmax mixture of z rows. h1 (B, d), z (B, K, d),
    mask (B, K) with at least one valid entry per row.
    """
    d = h1.data.shape[1]
    w_h, w_z = wa.data[:, :d], wa.data[:, d:]
    zz = z.data @ w_z.T
    u = np.empty(zz.shape)
    ct, alpha = kernels.attention_forward(h1.data @ w_h.T, zz, z.data, mask > 0, wav.data, u)

    def bwd(g):
        dpre = np.empty(u.shape)
        de = kernels.attention_backward(g, z.data, u, alpha, wav.data, dpre)
        dhh = dpre.sum(axis=1)
        dz = alpha[:, :, None] * g[:, None, :] + dpre @ w_z
        dwa = np.concatenate([dhh.T @ h1.data, np.einsum("bka,bkd->ad", dpre, z.data)], axis=1)
        return dhh @ w_h, dz, dwa, np.einsum("bka,bk->a", u, de)

    return node(ct, (h1, z, wa, wav), bwd)


def pair_cosines(
    vecs: Tensor, rows: np.ndarray, picks: Sequence[tuple[np.ndarray, np.ndarray]]
) -> list[Tensor]:
    """The cosines ``cos(vecs[rows[l]], vecs[rows[r]])`` of each (left, right)
    pick list, one tensor per list; ``rows`` are distinct, of non-zero norm.

    The rows' (n, n) cosine matrix is a local of the forward. The backward
    keeps only the rows (``vecs`` itself when they are all of it, in order)
    and the picks: it sums every list's gradient into one (n, n) gradient
    (``kernels.scatter_cells``) and runs one cosine backward. The lists'
    tensors are segments of one tape node.
    """
    picks = [(np.asarray(left, np.int64), np.asarray(right, np.int64)) for left, right in picks]
    whole = np.array_equal(rows, np.arange(len(vecs.data)))
    picked = vecs.data if whole else vecs.data[rows]
    cos = kernels.pair_cosines_forward(picked)
    bounds = np.cumsum([0] + [len(left) for left, _ in picks])
    spans = list(zip(bounds[:-1], bounds[1:]))

    def bwd(g):
        dcos = kernels.scatter_cells([g[a:b] for a, b in spans], picks, len(rows))
        gv = np.zeros_like(vecs.data)
        gv[rows] = kernels.pair_cosines_backward(dcos, picked)
        return (gv,)

    values = [cos[left, right] for left, right in picks]
    joint = node(np.concatenate([np.zeros(0), *values]), (vecs,), bwd)
    return [_segment(joint, a, b) for a, b in spans]


def _segment(t: Tensor, start: int, stop: int) -> Tensor:
    """The entries ``start:stop`` of a 1-D tensor."""
    return node(t.data[start:stop], (t,), lambda g: (np.pad(g, (start, len(t.data) - stop)),))


def pearson_t(x: Tensor, y: Tensor) -> Tensor:
    """Differentiable sample Pearson correlation of two 1-D tensors."""
    value = kernels.pearson(x.data, y.data)
    xc = x.data - x.data.mean()
    yc = y.data - y.data.mean()
    sx = np.linalg.norm(xc)
    sy = np.linalg.norm(yc)

    def bwd(g):
        s = float(g)
        dx = s * (yc / (sx * sy) - value * xc / (sx * sx))
        dy = s * (xc / (sx * sy) - value * yc / (sy * sy))
        # centering projects gradients onto the zero-mean subspace
        return dx - dx.mean(), dy - dy.mean()

    return node(value, (x, y), bwd)


def column_group_mean(w: Tensor, groups: Sequence[np.ndarray]) -> Tensor:
    """Row r of the output is the mean of w's columns listed in groups[r]."""
    out = np.stack([w.data[:, np.asarray(g, dtype=np.int64)].mean(axis=1) for g in groups])

    def bwd(g):
        gw = np.zeros_like(w.data)
        for r, cols in enumerate(groups):
            share = g[r] / len(cols)
            for c in cols:
                gw[:, c] += share
        return (gw,)

    return node(out, (w,), bwd)
