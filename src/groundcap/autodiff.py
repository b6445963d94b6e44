"""Reverse-mode automatic differentiation on float64 numpy arrays.

A Tensor wraps an ndarray and, while gradients are enabled, remembers the
operation that produced it as a backward closure over its parents. A
GradientTape owns the registry of trainable parameters for one training
step; ``backward(tape, loss)`` runs the reversed topological sweep and
returns one gradient array per registered parameter (exact zeros for
parameters the loss never touched).

Tensors are treated as immutable once produced. A tape is single-owner:
build the graph, call backward once, throw both away.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from . import kernels, numeric
from .errors import ContractError, DomainError, ShapeError

_GRAD_ENABLED = [True]


@contextmanager
def no_grad():
    """Disable graph recording (inference / constant construction)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = False
        self._parents: tuple[Tensor, ...] = ()
        self._bwd: Callable | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _make(data, parents: Sequence[Tensor], bwd) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED[-1] and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._bwd = bwd
    return out


class GradientTape:
    """Parameter registry for one optimisation step."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def parameter(self, name: str, array: np.ndarray) -> Tensor:
        if name in self._params:
            raise ContractError(f"parameter {name!r} registered twice")
        t = Tensor(array)
        t.requires_grad = True
        self._params[name] = t
        return t


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(tape: GradientTape, loss: Tensor) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every registered parameter."""
    if not isinstance(loss, Tensor):
        raise ContractError("loss must be a Tensor")
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.data.shape}")
    if loss.requires_grad:
        loss.grad = np.ones_like(loss.data)
        for node in reversed(_toposort(loss)):
            g = node.grad
            if g is None or node._bwd is None:
                continue
            parent_grads = node._bwd(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad += pg
    return {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in tape._params.items()
    }


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

    return _make(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return _unbroadcast(g, a.data.shape), -_unbroadcast(g, b.data.shape)

    return _make(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _make(a.data * b.data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


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
    return _make(out, parents, bwd)


def sum_(x: Tensor, axis: int | None = None) -> Tensor:
    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy(),)

    return _make(x.data.sum(axis=axis), (x,), bwd)


def mean_(x: Tensor, axis: int | None = None) -> Tensor:
    count = x.data.size if axis is None else x.data.shape[axis]

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g / count, x.data.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g / count, axis), x.data.shape).copy(),)

    return _make(x.data.mean(axis=axis), (x,), bwd)


def relu(x: Tensor) -> Tensor:
    return _make(np.maximum(x.data, 0.0), (x,), lambda g: (g * (x.data > 0.0),))


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    y = numeric.log_softmax(x.data, axis=axis)

    def bwd(g):
        return (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)

    return _make(y, (x,), bwd)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bwd)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"slice_cols expects a matrix, got shape {x.data.shape}")

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[:, start:stop] = g
        return (gx,)

    return _make(x.data[:, start:stop].copy(), (x,), bwd)


def embedding_cols(w: Tensor, ids: np.ndarray) -> Tensor:
    """Rows of the lookup: out[t] = w[:, ids[t]] for w (d, V)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= w.data.shape[1]):
        raise DomainError(
            f"token id out of range for vocabulary of size {w.data.shape[1]}"
        )

    def bwd(g):
        gw = np.zeros_like(w.data)
        np.add.at(gw.T, ids, g)
        return (gw,)

    return _make(w.data[:, ids].T, (w,), bwd)


def gather_cols(x: Tensor, ids: np.ndarray) -> Tensor:
    """Per-row pick: out[b] = x[b, ids[b]]."""
    ids = np.asarray(ids, dtype=np.int64)
    rows = np.arange(x.data.shape[0])

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[rows, ids] = g
        return (gx,)

    return _make(x.data[rows, ids], (x,), bwd)


def pad_rows(flat: Tensor, offsets: np.ndarray, counts: np.ndarray, width: int) -> Tensor:
    """Pack row segments of ``flat`` (N, d) into a zero-padded (B, width, d).

    Segments may overlap (several consumers of the same rows); backward
    accumulates.
    """
    n_seg = len(offsets)
    d = flat.data.shape[1]
    out = np.zeros((n_seg, width, d))
    for b in range(n_seg):
        out[b, : counts[b]] = flat.data[offsets[b] : offsets[b] + counts[b]]

    def bwd(g):
        gf = np.zeros_like(flat.data)
        for b in range(n_seg):
            gf[offsets[b] : offsets[b] + counts[b]] += g[b, : counts[b]]
        return (gf,)

    return _make(out, (flat,), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; ``rate`` 0 is the identity and draws nothing."""
    if rate == 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout rate must be in [0, 1), got {rate}")
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return _make(x.data * mask, (x,), lambda g: (g * mask,))


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
    pre = x.data @ wx.data.T + h_prev @ wh.data.T + b.data
    h, c, i, f, o, g_, tc = kernels.lstm_gates_forward(pre, c_prev)

    def bwd(g):
        dpre, dc_prev = kernels.lstm_gates_backward(
            np.ascontiguousarray(g[:, :d]),
            np.ascontiguousarray(g[:, d:]),
            i, f, o, g_, tc, c_prev,
        )
        dx = dpre @ wx.data
        dwx = dpre.T @ x.data
        dh_prev = dpre @ wh.data
        dwh = dpre.T @ h_prev
        db = dpre.sum(axis=0)
        dhc = np.concatenate([dh_prev, dc_prev], axis=1)
        return dx, dhc, dwx, dwh, db

    return _make(np.concatenate([h, c], axis=1), (x, hc_prev, wx, wh, b), bwd)


def attend(h1: Tensor, z: Tensor, mask: np.ndarray, wa: Tensor, wav: Tensor) -> Tensor:
    """Additive attention over object vectors with a validity mask.

    Scores e[b,k] = wav . tanh(wa @ [h1[b]; z[b,k]]); the context vector is
    the masked-softmax mixture of z rows. h1 (B, d), z (B, K, d),
    mask (B, K) with at least one valid entry per row.
    """
    d = h1.data.shape[1]
    w_h = wa.data[:, :d]
    w_z = wa.data[:, d:]
    hh = h1.data @ w_h.T
    zz = z.data @ w_z.T
    u = np.tanh(hh[:, None, :] + zz)
    e = u @ wav.data
    e = np.where(mask > 0, e, -np.inf)
    e = e - e.max(axis=1, keepdims=True)
    ex = np.exp(e)
    alpha = ex / ex.sum(axis=1, keepdims=True)
    ct = np.einsum("bk,bkd->bd", alpha, z.data)

    def bwd(g):
        dalpha = np.einsum("bd,bkd->bk", g, z.data)
        dz = alpha[:, :, None] * g[:, None, :]
        de = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
        dwav = np.einsum("bka,bk->a", u, de)
        du = de[:, :, None] * wav.data
        dpre = du * (1.0 - u * u)
        dhh = dpre.sum(axis=1)
        dh1 = dhh @ w_h
        dw_h = dhh.T @ h1.data
        dz += dpre @ w_z
        dw_z = np.einsum("bka,bkd->ad", dpre, z.data)
        return dh1, dz, np.concatenate([dw_h, dw_z], axis=1), dwav

    return _make(ct, (h1, z, wa, wav), bwd)


def pair_cosines(vecs: Tensor, left: np.ndarray, right: np.ndarray) -> Tensor:
    """Vector of cosines between row pairs of ``vecs`` (rows must be non-zero)."""
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    sims, saved = kernels.pair_cosines_forward(vecs.data, left, right)

    def bwd(g):
        return (
            kernels.pair_cosines_backward(np.ascontiguousarray(g), vecs.data, left, right, saved),
        )

    return _make(sims, (vecs,), bwd)


def pearson_t(x: Tensor, y: Tensor) -> Tensor:
    """Differentiable sample Pearson correlation of two 1-D tensors."""
    value = numeric.pearson(x.data, y.data)
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

    return _make(value, (x, y), bwd)


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

    return _make(out, (w,), bwd)
