"""Hot numeric kernels, each in a numba-compiled and a pure-numpy variant.

The active variant is picked once at import time from the GROUNDCAP_NUMBA
environment variable: "0"/"off"/"false" forces the numpy path, "1"/"on"/
"true" requires numba (ImportError if missing), anything else ("auto",
unset) uses numba when importable. Both variants of every kernel stay
importable so the equivalence tests can compare them.

LSTM gate layout throughout: the pre-activation matrix packs the four
gates column-blockwise as [input | forget | output | candidate].
"""

from __future__ import annotations

import math
import os

import numpy as np

from .numeric import sigmoid


def _numba_requested() -> tuple[bool, bool]:
    """Return (use_numba, required) from the environment flag."""
    flag = os.environ.get("GROUNDCAP_NUMBA", "auto").strip().lower()
    if flag in ("0", "off", "false", "no"):
        return False, False
    if flag in ("1", "on", "true", "yes"):
        return True, True
    return True, False


_want, _required = _numba_requested()
if _want:
    try:
        from numba import njit

        NUMBA_AVAILABLE = True
    except ImportError:
        if _required:
            raise
        NUMBA_AVAILABLE = False
else:
    NUMBA_AVAILABLE = False

USE_NUMBA = _want and NUMBA_AVAILABLE


# ---------------------------------------------------------------------------
# numpy variants
# ---------------------------------------------------------------------------

def lstm_gates_forward_numpy(pre, c_prev):
    """Gate nonlinearities and state update from pre-activations.

    pre: (B, 4d) gate pre-activations, c_prev: (B, d) previous cell.
    Returns (h, c, i, f, o, g, tc) where tc = tanh(c).
    """
    d = c_prev.shape[1]
    # One call for the three sigmoid gates: per-call overhead dominates at
    # the batch size of 1 that greedy decoding runs at.
    ifo = sigmoid(pre[:, :3 * d])
    i = ifo[:, :d]
    f = ifo[:, d:2 * d]
    o = ifo[:, 2 * d:]
    g = np.tanh(pre[:, 3 * d:])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return h, c, i, f, o, g, tc


def lstm_gates_backward_numpy(dh, dc, i, f, o, g, tc, c_prev):
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


def pair_cosines_forward_numpy(vecs, left, right):
    """Cosine similarity between row pairs (vecs[left[t]], vecs[right[t]]).

    Rows referenced by the index arrays must have non-zero norm.
    """
    u = vecs[left]
    v = vecs[right]
    nu = np.sqrt((u * u).sum(axis=1))
    nv = np.sqrt((v * v).sum(axis=1))
    return (u * v).sum(axis=1) / (nu * nv)


def pair_cosines_backward_numpy(dsims, vecs, left, right):
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


def lcs_length_numpy(a, b):
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


def iou_matrix_numpy(boxes_a, boxes_b):
    """Pairwise IoU of two (n, 4) / (m, 4) arrays of (x0, y0, x1, y1)."""
    ax0, ay0, ax1, ay1 = (boxes_a[:, k][:, None] for k in range(4))
    bx0, by0, bx1, by1 = (boxes_b[:, k][None, :] for k in range(4))
    iw = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
    ih = np.minimum(ay1, by1) - np.maximum(ay0, by0)
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union


# ---------------------------------------------------------------------------
# numba variants (same math written as explicit loops)
# ---------------------------------------------------------------------------

def _lstm_gates_forward_loop(pre, c_prev):
    B, d = c_prev.shape
    h = np.empty((B, d))
    c = np.empty((B, d))
    i = np.empty((B, d))
    f = np.empty((B, d))
    o = np.empty((B, d))
    g = np.empty((B, d))
    tc = np.empty((B, d))
    for b in range(B):
        for j in range(d):
            xi = pre[b, j]
            xf = pre[b, d + j]
            xo = pre[b, 2 * d + j]
            xg = pre[b, 3 * d + j]
            if xi >= 0.0:
                vi = 1.0 / (1.0 + math.exp(-xi))
            else:
                e = math.exp(xi)
                vi = e / (1.0 + e)
            if xf >= 0.0:
                vf = 1.0 / (1.0 + math.exp(-xf))
            else:
                e = math.exp(xf)
                vf = e / (1.0 + e)
            if xo >= 0.0:
                vo = 1.0 / (1.0 + math.exp(-xo))
            else:
                e = math.exp(xo)
                vo = e / (1.0 + e)
            vg = math.tanh(xg)
            vc = vf * c_prev[b, j] + vi * vg
            vtc = math.tanh(vc)
            i[b, j] = vi
            f[b, j] = vf
            o[b, j] = vo
            g[b, j] = vg
            c[b, j] = vc
            tc[b, j] = vtc
            h[b, j] = vo * vtc
    return h, c, i, f, o, g, tc


def _lstm_gates_backward_loop(dh, dc, i, f, o, g, tc, c_prev):
    B, d = dh.shape
    dpre = np.empty((B, 4 * d))
    dc_prev = np.empty((B, d))
    for b in range(B):
        for j in range(d):
            vtc = tc[b, j]
            do = dh[b, j] * vtc
            dct = dc[b, j] + dh[b, j] * o[b, j] * (1.0 - vtc * vtc)
            vi = i[b, j]
            vf = f[b, j]
            vo = o[b, j]
            vg = g[b, j]
            dpre[b, j] = dct * vg * vi * (1.0 - vi)
            dpre[b, d + j] = dct * c_prev[b, j] * vf * (1.0 - vf)
            dpre[b, 2 * d + j] = do * vo * (1.0 - vo)
            dpre[b, 3 * d + j] = dct * vi * (1.0 - vg * vg)
            dc_prev[b, j] = dct * vf
    return dpre, dc_prev


def _pair_cosines_forward_loop(vecs, left, right):
    m = left.shape[0]
    d = vecs.shape[1]
    sims = np.empty(m)
    for t in range(m):
        li = left[t]
        ri = right[t]
        dot = 0.0
        nu = 0.0
        nv = 0.0
        for j in range(d):
            a = vecs[li, j]
            b = vecs[ri, j]
            dot += a * b
            nu += a * a
            nv += b * b
        sims[t] = dot / (math.sqrt(nu) * math.sqrt(nv))
    return sims


def _pair_cosines_backward_loop(dsims, vecs, left, right):
    m = left.shape[0]
    d = vecs.shape[1]
    dvecs = np.zeros_like(vecs)
    for t in range(m):
        li = left[t]
        ri = right[t]
        dot = 0.0
        nu2 = 0.0
        nv2 = 0.0
        for j in range(d):
            a = vecs[li, j]
            b = vecs[ri, j]
            dot += a * b
            nu2 += a * a
            nv2 += b * b
        nu = math.sqrt(nu2)
        nv = math.sqrt(nv2)
        inv = 1.0 / (nu * nv)
        cos = dot * inv
        s = dsims[t]
        for j in range(d):
            a = vecs[li, j]
            b = vecs[ri, j]
            dvecs[li, j] += s * (b * inv - a * cos / nu2)
            dvecs[ri, j] += s * (a * inv - b * cos / nv2)
    return dvecs


def _lcs_length_loop(a, b):
    n = a.shape[0]
    m = b.shape[0]
    if n == 0 or m == 0:
        return 0
    prev = np.zeros(m + 1, dtype=np.int64)
    cur = np.zeros(m + 1, dtype=np.int64)
    for ii in range(1, n + 1):
        ai = a[ii - 1]
        for jj in range(1, m + 1):
            if ai == b[jj - 1]:
                cur[jj] = prev[jj - 1] + 1
            elif prev[jj] >= cur[jj - 1]:
                cur[jj] = prev[jj]
            else:
                cur[jj] = cur[jj - 1]
        for jj in range(m + 1):
            prev[jj] = cur[jj]
    return int(prev[m])


def _iou_matrix_loop(boxes_a, boxes_b):
    n = boxes_a.shape[0]
    m = boxes_b.shape[0]
    out = np.empty((n, m))
    for p in range(n):
        ax0, ay0, ax1, ay1 = boxes_a[p, 0], boxes_a[p, 1], boxes_a[p, 2], boxes_a[p, 3]
        area_a = (ax1 - ax0) * (ay1 - ay0)
        for q in range(m):
            bx0, by0, bx1, by1 = boxes_b[q, 0], boxes_b[q, 1], boxes_b[q, 2], boxes_b[q, 3]
            iw = min(ax1, bx1) - max(ax0, bx0)
            ih = min(ay1, by1) - max(ay0, by0)
            inter = iw * ih if (iw > 0.0 and ih > 0.0) else 0.0
            union = area_a + (bx1 - bx0) * (by1 - by0) - inter
            out[p, q] = inter / union
    return out


if NUMBA_AVAILABLE:
    lstm_gates_forward_numba = njit(cache=True)(_lstm_gates_forward_loop)
    lstm_gates_backward_numba = njit(cache=True)(_lstm_gates_backward_loop)
    pair_cosines_forward_numba = njit(cache=True)(_pair_cosines_forward_loop)
    pair_cosines_backward_numba = njit(cache=True)(_pair_cosines_backward_loop)
    lcs_length_numba = njit(cache=True)(_lcs_length_loop)
    iou_matrix_numba = njit(cache=True)(_iou_matrix_loop)
else:
    lstm_gates_forward_numba = None
    lstm_gates_backward_numba = None
    pair_cosines_forward_numba = None
    pair_cosines_backward_numba = None
    lcs_length_numba = None
    iou_matrix_numba = None

if USE_NUMBA:
    lstm_gates_forward = lstm_gates_forward_numba
    lstm_gates_backward = lstm_gates_backward_numba
    pair_cosines_forward = pair_cosines_forward_numba
    pair_cosines_backward = pair_cosines_backward_numba
    lcs_length = lcs_length_numba
    iou_matrix = iou_matrix_numba
else:
    lstm_gates_forward = lstm_gates_forward_numpy
    lstm_gates_backward = lstm_gates_backward_numpy
    pair_cosines_forward = pair_cosines_forward_numpy
    pair_cosines_backward = pair_cosines_backward_numpy
    lcs_length = lcs_length_numpy
    iou_matrix = iou_matrix_numpy
