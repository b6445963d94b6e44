"""Hot numeric kernels: LSTM gates, pair cosines, LCS and IoU, in numpy.

Callers reach every kernel through the module attribute
(``kernels.lstm_gates_forward(...)``), so a wrapper patched onto the module
sees every call. ``tests/loop_reference.py`` keeps the same math as explicit
loops, and the tests compare the two.

LSTM gate layout throughout: the pre-activation matrix packs the four
gates column-blockwise as [input | forget | output | candidate].
"""

from __future__ import annotations

import numpy as np

from .numeric import sigmoid

# There is no compiled kernel path; perfbench/workload.py records this flag.
USE_NUMBA = False


def lstm_gates_forward(pre, c_prev):
    """Gate nonlinearities and state update from pre-activations.

    pre: (B, 4d) gate pre-activations, c_prev: (B, d) previous cell.
    Returns (h, c, i, f, o, g, tc) where tc = tanh(c).
    """
    d = c_prev.shape[1]
    # One call for the three sigmoid gates: per-call overhead dominates at
    # small batch sizes.
    ifo = sigmoid(pre[:, :3 * d])
    i = ifo[:, :d]
    f = ifo[:, d:2 * d]
    o = ifo[:, 2 * d:]
    g = np.tanh(pre[:, 3 * d:])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return h, c, i, f, o, g, tc


def lstm_gates_backward(dh, dc, i, f, o, g, tc, c_prev):
    """Backward through the gate nonlinearities.

    dh, dc: (B, d) gradients w.r.t. h and c.
    Returns (dpre, dc_prev) with dpre shaped (B, 4d).
    """
    B, d = dh.shape
    do = dh * tc
    dct = dc + dh * o * (1.0 - tc * tc)
    dpre = np.empty((B, 4 * d))
    dpre[:, :d] = dct * g * i * (1.0 - i)
    dpre[:, d:2 * d] = dct * c_prev * f * (1.0 - f)
    dpre[:, 2 * d:3 * d] = do * o * (1.0 - o)
    dpre[:, 3 * d:] = dct * i * (1.0 - g * g)
    dc_prev = dct * f
    return dpre, dc_prev


def pair_cosines_forward(vecs, left, right):
    """Cosine similarity between row pairs (vecs[left[t]], vecs[right[t]]).

    Rows referenced by the index arrays must have non-zero norm.
    """
    u = vecs[left]
    v = vecs[right]
    nu = np.sqrt((u * u).sum(axis=1))
    nv = np.sqrt((v * v).sum(axis=1))
    return (u * v).sum(axis=1) / (nu * nv)


def pair_cosines_backward(dsims, vecs, left, right):
    """Accumulate d(loss)/d(vecs) from per-pair cosine gradients."""
    u = vecs[left]
    v = vecs[right]
    nu = np.sqrt((u * u).sum(axis=1))
    nv = np.sqrt((v * v).sum(axis=1))
    dots = (u * v).sum(axis=1)
    inv = 1.0 / (nu * nv)
    cos = dots * inv
    s = dsims[:, None]
    du = s * (v * inv[:, None] - u * (cos / (nu * nu))[:, None])
    dv = s * (u * inv[:, None] - v * (cos / (nv * nv))[:, None])
    # One bincount over the flat (row, column) cells adds the left terms in
    # pair order, then the right terms, as two np.add.at calls would.
    n, d = vecs.shape
    cells = (np.concatenate([left, right])[:, None] * d + np.arange(d)).ravel()
    terms = np.concatenate([du, dv]).ravel()
    return np.bincount(cells, weights=terms, minlength=n * d).reshape(n, d)


def lcs_length(a, b):
    """Length of the longest common subsequence of two int sequences."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return 0
    prev = [0] * (m + 1)
    cur = [0] * (m + 1)
    for ii in range(1, n + 1):
        ai = a[ii - 1]
        for jj in range(1, m + 1):
            if ai == b[jj - 1]:
                cur[jj] = prev[jj - 1] + 1
            elif prev[jj] >= cur[jj - 1]:
                cur[jj] = prev[jj]
            else:
                cur[jj] = cur[jj - 1]
        prev, cur = cur, prev
    return prev[m]


def iou_matrix(boxes_a, boxes_b):
    """Pairwise IoU of two (n, 4) / (m, 4) arrays of (x0, y0, x1, y1)."""
    ax0, ay0, ax1, ay1 = (boxes_a[:, k][:, None] for k in range(4))
    bx0, by0, bx1, by1 = (boxes_b[:, k][None, :] for k in range(4))
    iw = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
    ih = np.minimum(ay1, by1) - np.maximum(ay0, by0)
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union
