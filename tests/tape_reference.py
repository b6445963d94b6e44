"""Per-time-step tape decoder: the oracle for the fused teacher-forced op.

``batch_forward`` here is the teacher-forced forward that walks the tape
one time step at a time: about 15 nodes per step (embedding lookup,
dropout, concatenations, two ``lstm_cell`` and one ``attend`` node, the
output projection, log-softmax and the target pick). ``groundcap.model.
batch_forward`` must return the same values and gradients within rounding,
and leave the dropout generator in the same state.

The generic ops it needs are kept here, each with the hand-written
backward it had on the tape; ``test_autodiff.py`` checks them by finite
differences. ``retaining_backward`` is the backward sweep that keeps the
whole graph, the oracle for ``autodiff.backward``, which frees it.

``pair_cosines`` is the oracle for ``autodiff.pair_cosines``: the grounding
heads' cosines as the tape once built them, a ``cosine_matrix`` node and
one ``pair_pick`` node per pick list, whose dense (n, n) gradients the tape
zero-fills and sums into the matrix's.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from groundcap import autodiff as ad
from groundcap import kernels
from groundcap.autodiff import Tensor, node
from groundcap.data import BOS_ID, EOS_ID
from groundcap.errors import DomainError, ShapeError
from groundcap.model import ModelConfig, ModelParams


def constants(params: ModelParams) -> dict[str, Tensor]:
    """Every parameter array as a Tensor that records no gradient."""
    return {name: Tensor(arr) for name, arr in params.arrays.items()}


def sum_(x: Tensor, axis: int | None = None) -> Tensor:
    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy(),)

    return node(x.data.sum(axis=axis), (x,), bwd)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    y = kernels.log_softmax(x.data, axis=axis)

    def bwd(g):
        return (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)

    return node(y, (x,), bwd)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bwd)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"slice_cols expects a matrix, got shape {x.data.shape}")

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[:, start:stop] = g
        return (gx,)

    return node(x.data[:, start:stop].copy(), (x,), bwd)


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

    return node(w.data[:, ids].T, (w,), bwd)


def gather_cols(x: Tensor, ids: np.ndarray) -> Tensor:
    """Per-row pick: out[b] = x[b, ids[b]]."""
    ids = np.asarray(ids, dtype=np.int64)
    rows = np.arange(x.data.shape[0])

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[rows, ids] = g
        return (gx,)

    return node(x.data[rows, ids], (x,), bwd)


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

    return node(out, (flat,), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; ``rate`` 0 is the identity and draws nothing."""
    if rate == 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout rate must be in [0, 1), got {rate}")
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return node(x.data * mask, (x,), lambda g: (g * mask,))


def cosine_matrix(vecs: Tensor, rows: np.ndarray) -> Tensor:
    """All-pairs cosine matrix of the rows ``vecs[rows]`` (distinct, non-zero);
    the backward writes those rows' gradient into the shape of ``vecs``."""
    picked = vecs.data[rows]

    def bwd(g):
        gv = np.zeros_like(vecs.data)
        gv[rows] = kernels.pair_cosines_backward(g, picked)
        return (gv,)

    return node(kernels.pair_cosines_forward(picked), (vecs,), bwd)


def pair_pick(m: Tensor, left: np.ndarray, right: np.ndarray) -> Tensor:
    """The entries ``m[left[t], right[t]]`` of a square matrix; the backward
    adds each pick into a zeroed matrix, repeated cells in pick order."""
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)

    def bwd(g):
        gm = np.zeros_like(m.data)
        np.add.at(gm, (left, right), g)
        return (gm,)

    return node(m.data[left, right], (m,), bwd)


def pair_cosines(vecs: Tensor, rows: np.ndarray, picks) -> list[Tensor]:
    """``autodiff.pair_cosines`` as one matrix node and a pick node per list."""
    m = cosine_matrix(vecs, rows)
    return [pair_pick(m, left, right) for left, right in picks]


def batch_forward(
    p: dict[str, Tensor],
    cfg: ModelConfig,
    features: list[np.ndarray],
    image_of_example: list[int],
    tokens: list[list[int]],
    rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    """``groundcap.model.batch_forward``, one tape node per operation and step."""
    d = cfg.hidden_size
    batch = len(tokens)
    if batch == 0:
        raise DomainError("empty batch")
    if any(len(t) == 0 for t in tokens):
        raise DomainError("every caption must have at least one target token")

    counts_img = np.array([f.shape[0] for f in features])
    offsets_img = np.concatenate([[0], np.cumsum(counts_img)[:-1]]).astype(np.int64)
    z_flat = ad.linear(Tensor(np.concatenate(features, axis=0)), p["input_proj"])

    offsets = np.array([offsets_img[i] for i in image_of_example])
    counts = np.array([counts_img[i] for i in image_of_example])
    width = int(counts.max())
    z_pad = pad_rows(z_flat, offsets, counts, width)
    mask = (np.arange(width)[None, :] < counts[:, None]).astype(np.float64)
    z_bar = ad.mul(sum_(z_pad, axis=1), Tensor((1.0 / counts)[:, None]))

    t_max = max(len(t) for t in tokens)
    targets = np.full((batch, t_max), EOS_ID, dtype=np.int64)
    t_mask = np.zeros((batch, t_max))
    for e, seq in enumerate(tokens):
        targets[e, : len(seq)] = seq
        t_mask[e, : len(seq)] = 1.0
    inputs = np.full((batch, t_max), BOS_ID, dtype=np.int64)
    inputs[:, 1:] = targets[:, :-1]

    hc1 = Tensor(np.zeros((batch, 2 * d)))
    hc2 = Tensor(np.zeros((batch, 2 * d)))
    h2_fed = Tensor(np.zeros((batch, d)))
    total_logprob: Tensor | None = None
    for t in range(t_max):
        x = dropout(embedding_cols(p["embedding"], inputs[:, t]), rate, rng)
        in1 = concat([x, z_bar, h2_fed], axis=1)
        hc1 = ad.lstm_cell(in1, hc1, p["lstm1.wx"], p["lstm1.wh"], p["lstm1.b"])
        h1 = dropout(slice_cols(hc1, 0, d), rate, rng)
        ct = ad.attend(h1, z_pad, mask, p["att.proj"], p["att.score"])
        in2 = concat([ct, h1], axis=1)
        hc2 = ad.lstm_cell(in2, hc2, p["lstm2.wx"], p["lstm2.wh"], p["lstm2.b"])
        h2_fed = dropout(slice_cols(hc2, 0, d), rate, rng)
        logits = ad.linear(h2_fed, p["out.w"], p["out.b"])
        step_lp = gather_cols(log_softmax(logits, axis=1), targets[:, t])
        masked = ad.mul(step_lp, Tensor(t_mask[:, t]))
        total_logprob = masked if total_logprob is None else ad.add(total_logprob, masked)

    lengths = np.array([float(len(t)) for t in tokens])
    return ad.mul(total_logprob, Tensor(1.0 / lengths)), z_flat


def retaining_backward(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """``autodiff.backward`` as it was before it freed the graph: every node
    keeps its gradient, backward closure and parents, and each parameter's
    gradient is returned as a copy. The oracle for the freeing sweep's
    values and order of accumulation."""
    if loss.requires_grad:
        loss.grad = np.ones_like(loss.data)
        for tensor in reversed(ad._toposort(loss)):
            g = tensor.grad
            if g is None or tensor._bwd is None:
                continue
            parent_grads = tensor._bwd(g)
            for parent, pg in zip(tensor._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad += pg
    return {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
