"""Reverse-mode automatic differentiation on float64 numpy arrays.

A Tensor wraps an ndarray and, while gradients are enabled, remembers the
operation that produced it as a backward closure over its parents. A
GradientTape owns the registry of trainable parameters for one training
step; ``backward(tape, loss)`` runs the reversed topological sweep and
returns one gradient array per registered parameter (exact zeros for
parameters the loss never touched).

Tensors are treated as immutable once produced. A tape is single-owner:
build the graph, call backward once, throw both away.

Fused ops have a hand-derived backward, checked by finite differences in
the tests. ``teacher_forced_logprob`` is the whole teacher-forced decoder,
all time steps, as one node: the training step's cross-entropy path.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from . import kernels, numeric
from .errors import ContractError, ShapeError

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


def mean_(x: Tensor) -> Tensor:
    """Mean of all entries."""
    return _make(x.data.mean(), (x,), lambda g: (np.full(x.data.shape, g / x.data.size),))


def relu(x: Tensor) -> Tensor:
    return _make(np.maximum(x.data, 0.0), (x,), lambda g: (g * (x.data > 0.0),))


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


def _attention(hh, zz, z, valid, wav, u):
    """Context vectors and weights of masked attention; tanh(hh + zz) goes into ``u``."""
    np.tanh(np.add(hh[:, None, :], zz, out=u), out=u)
    e = np.where(valid, u @ wav, -np.inf)
    e = e - e.max(axis=1, keepdims=True)
    ex = np.exp(e)
    alpha = ex / ex.sum(axis=1, keepdims=True)
    return np.einsum("bk,bkd->bd", alpha, z), alpha


def _attention_backward(g, z, u, alpha, wav, dpre):
    """Score gradients from d(context) ``g``; those of the tanh inputs go into
    ``dpre``, in place, so that no large temporary is freed and faulted in again."""
    dalpha = np.einsum("bd,bkd->bk", g, z)
    de = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    np.subtract(1.0, np.multiply(u, u, out=dpre), out=dpre)
    dpre *= de[:, :, None]
    dpre *= wav
    return de


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
    ct, alpha = _attention(h1.data @ w_h.T, zz, z.data, mask > 0, wav.data, u)

    def bwd(g):
        dpre = np.empty(u.shape)
        de = _attention_backward(g, z.data, u, alpha, wav.data, dpre)
        dhh = dpre.sum(axis=1)
        dz = alpha[:, :, None] * g[:, None, :] + dpre @ w_z
        dwa = np.concatenate([dhh.T @ h1.data, np.einsum("bka,bkd->ad", dpre, z.data)], axis=1)
        return dhh @ w_h, dz, dwa, np.einsum("bka,bk->a", u, de)

    return _make(ct, (h1, z, wa, wav), bwd)


def teacher_forced_logprob(
    z_flat: Tensor,
    weights: Sequence[Tensor],
    rows: np.ndarray,
    valid: np.ndarray,
    inputs: np.ndarray,
    targets: np.ndarray,
    t_mask: np.ndarray,
    drop: np.ndarray,
) -> Tensor:
    """Mean log-probability of each target sequence under the decoder of
    ``model.py``, teacher-forced, as one node (``weights`` in the order of
    ``model.DECODER_PARAMS``). Example b attends over ``z_flat[rows[b, k]]``
    where ``valid[b, k]``; ``inputs``, ``targets``, ``t_mask`` are (B, T)
    and ``drop`` the (T, 3, B, d) dropout masks of x, h1 and h2. Following
    Appleyard et al. (arXiv 1604.01946), the attention projection of z, the
    input GEMMs of LSTM1, the output layer and every weight gradient run once
    over all steps, not once per step.
    """
    emb, wx1, wh1, b1, wa, wav, wx2, wh2, b2, w_out, b_out = (w.data for w in weights)
    n, steps = inputs.shape
    d, a = wh1.shape[1], wav.shape[0]
    z = np.where(valid[:, :, None], z_flat.data[rows], 0.0)
    inv_count = 1.0 / valid.sum(axis=1)
    z_bar = z.sum(axis=1) * inv_count[:, None]
    w_h, w_z = wa[:, :d], wa[:, d:]
    zz = z @ w_z.T
    x = emb.T[inputs.T] * drop[:, 0]  # (T, B, d)
    pre_in = (x.reshape(-1, d) @ wx1[:, :d].T).reshape(steps, n, 4 * d)
    pre_in += z_bar @ wx1[:, d : 2 * d].T + b1
    w_rec = np.concatenate([wx1[:, 2 * d :], wh1], axis=1)  # acts on [h2 fed, h1]
    w2 = np.concatenate([wx2, wh2], axis=1)  # acts on [ct, h1 fed, h2]

    # per-step inputs of the recurrent GEMMs, kept for the weight gradients
    rec = np.zeros((steps, n, 2 * d))
    in2 = np.zeros((steps, n, 3 * d))
    h2_fed = np.empty((steps, n, d))
    us = np.empty((steps,) + zz.shape)
    alphas = np.empty((steps,) + valid.shape)
    cells1, cells2 = np.zeros((2, steps + 1, n, d))  # row t: the cell state entering step t
    gates1, gates2 = [], []
    for t in range(steps):
        if t:  # the recurrent inputs, from step t - 1
            rec[t] = np.concatenate([h2_fed[t - 1], h1], axis=1)
            in2[t, :, 2 * d :] = h2
            pre_in[t] += rec[t] @ w_rec.T
        h1, cells1[t + 1], *cache = kernels.lstm_gates_forward(pre_in[t], cells1[t])
        gates1.append(cache)
        in2[t, :, d : 2 * d] = h1 * drop[t, 1]
        in2[t, :, :d], alphas[t] = _attention(in2[t, :, d : 2 * d] @ w_h.T, zz, z, valid, wav, us[t])
        h2, cells2[t + 1], *cache = kernels.lstm_gates_forward(in2[t] @ w2.T + b2, cells2[t])
        gates2.append(cache)
        h2_fed[t] = h2 * drop[t, 2]

    logp = numeric.log_softmax(h2_fed.reshape(-1, d) @ w_out.T + b_out, axis=1)
    picks = (np.arange(steps * n), targets.T.ravel())
    inv_len = 1.0 / t_mask.sum(axis=1)
    out = (logp[picks].reshape(steps, n) * t_mask.T).sum(axis=0) * inv_len

    def bwd(g):
        dlp = ((g * inv_len) * t_mask.T).ravel()
        dlogits = np.exp(logp) * -dlp[:, None]
        dlogits[picks] += dlp
        dh2_out = (dlogits @ w_out).reshape(steps, n, d)
        dpre1, dpre2 = np.empty((2, steps, n, 4 * d))
        dct = np.empty((steps, n, d))
        dhh = np.empty((steps, n, a))
        des = np.empty(alphas.shape)
        dpre, datt = np.zeros((2,) + zz.shape)  # d(tanh input): one step, summed over steps
        dh2_fed = dh1_rec = dh2_rec = dc1 = dc2 = np.zeros((n, d))
        for t in reversed(range(steps)):
            dh2 = (dh2_out[t] + dh2_fed) * drop[t, 2] + dh2_rec
            dpre2[t], dc2 = kernels.lstm_gates_backward(dh2, dc2, *gates2[t], cells2[t])
            dct[t], dh1_fed, dh2_rec = np.split(dpre2[t] @ w2, 3, axis=1)
            des[t] = _attention_backward(dct[t], z, us[t], alphas[t], wav, dpre)
            datt += dpre
            dhh[t] = dpre.sum(axis=1)
            dh1 = (dh1_fed + dhh[t] @ w_h) * drop[t, 1] + dh1_rec
            dpre1[t], dc1 = kernels.lstm_gates_backward(dh1, dc1, *gates1[t], cells1[t])
            dh2_fed, dh1_rec = np.split(dpre1[t] @ w_rec, 2, axis=1)

        flat1, flat2 = dpre1.reshape(-1, 4 * d), dpre2.reshape(-1, 4 * d)
        sum1 = dpre1.sum(axis=0)
        dw_rec = flat1.T @ rec.reshape(-1, 2 * d)
        dwx1 = np.concatenate([flat1.T @ x.reshape(-1, d), sum1.T @ z_bar, dw_rec[:, :d]], axis=1)
        dw2 = flat2.T @ in2.reshape(-1, 3 * d)
        dx = (flat1 @ wx1[:, :d]) * drop[:, 0].reshape(-1, d)
        demb = np.ascontiguousarray(kernels.scatter_rows(inputs.T.ravel(), dx, emb.shape[1]).T)
        dw_h = dhh.reshape(-1, a).T @ in2[:, :, d : 2 * d].reshape(-1, d)
        dw_z = datt.reshape(-1, a).T @ z.reshape(-1, d)
        dz = alphas.transpose(1, 2, 0) @ dct.transpose(1, 0, 2) + datt @ w_z
        dz += ((sum1 @ wx1[:, d : 2 * d]) * inv_count[:, None])[:, None, :]
        dz_flat = kernels.scatter_rows(rows[valid], dz[valid], len(z_flat.data))
        return (
            dz_flat, demb, dwx1, dw_rec[:, d:], sum1.sum(axis=0),
            np.concatenate([dw_h, dw_z], axis=1), des.ravel() @ us.reshape(-1, a),
            dw2[:, : 2 * d], dw2[:, 2 * d :], flat2.sum(axis=0),
            dlogits.T @ h2_fed.reshape(-1, d), dlogits.sum(axis=0),
        )

    return _make(out, (z_flat, *weights), bwd)


def cosine_matrix(vecs: Tensor, rows: np.ndarray) -> Tensor:
    """All-pairs cosine matrix of the rows ``vecs[rows]`` (distinct, non-zero);
    the backward writes those rows' gradient into the shape of ``vecs``."""
    picked = vecs.data[rows]

    def bwd(g):
        gv = np.zeros_like(vecs.data)
        gv[rows] = kernels.pair_cosines_backward(g, picked)
        return (gv,)

    return _make(kernels.pair_cosines_forward(picked), (vecs,), bwd)


def pair_pick(m: Tensor, left: np.ndarray, right: np.ndarray) -> Tensor:
    """The entries ``m[left[t], right[t]]`` of a square matrix."""
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)

    def bwd(g):
        return (kernels.pair_pick_backward(g, left, right, len(m.data)),)

    return _make(m.data[left, right], (m,), bwd)


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
