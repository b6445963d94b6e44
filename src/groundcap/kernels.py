"""Every plain-array kernel: softmax, log-softmax, sigmoid, Pearson, LSTM
gates, masked attention, the cosine matrix, scatters and IoU in numpy, and LCS.

Callers reach every kernel through the module attribute
(``kernels.lstm_gates_forward(...)``), so a wrapper patched onto the module
sees every call. ``tests/loop_reference.py`` keeps the same math as explicit
loops, and the tests compare the two.

Every cosine of the grounding heads and the structure analysis comes from
one all-pairs matrix, ``pair_cosines_forward``.

An LSTM step's (B, 4d) gate block packs its gates column-blockwise as
[input | forget | output | candidate]. The gate kernels work in place on it,
as the attention kernels do on ``u`` and ``dpre``: the forward writes the
activations over the pre-activations, the backward d(pre) over those.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateStatisticsError, DomainError, ShapeError

# There is no compiled kernel path; perfbench/workload.py records this flag.
USE_NUMBA = False


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (max-subtracted) along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise DomainError("softmax of an empty vector is undefined")
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise DomainError("log_softmax of an empty vector is undefined")
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function; exp only sees -|x|, so it never overflows.

    With e = exp(-|x|) it is max(e, 1)/(1+e) = 1/(1+e) for x >= 0 and
    max(e, 0)/(1+e) = e/(1+e) otherwise: the bits of the two-branch form,
    without selecting between branches. A NaN keeps its sign bit.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))
    return np.maximum(e, x >= 0.0) / (1.0 + e)


def pearson(xs: np.ndarray, ys: np.ndarray) -> float:
    """Sample Pearson correlation coefficient of two equally long lists."""
    xs = np.asarray(xs, dtype=np.float64).ravel()
    ys = np.asarray(ys, dtype=np.float64).ravel()
    if xs.shape != ys.shape:
        raise ShapeError(f"pearson needs equal lengths, got {xs.shape} and {ys.shape}")
    if xs.size < 2:
        raise DegenerateStatisticsError("pearson needs at least 2 points")
    xc = xs - xs.mean()
    yc = ys - ys.mean()
    sx = np.linalg.norm(xc)
    sy = np.linalg.norm(yc)
    if sx == 0.0 or sy == 0.0:
        raise DegenerateStatisticsError("pearson is undefined under zero variance")
    return float(np.dot(xc, yc) / (sx * sy))


def lstm_gates_forward(gates, c_prev):
    """Gate nonlinearities and state update, in place on the gate block.

    gates: (B, 4d) pre-activations, overwritten with the activations
    [i f o g]; c_prev: (B, d) previous cell. Returns (h, c, tanh c).
    """
    d = c_prev.shape[1]
    # One call for the three sigmoid gates: per-call overhead dominates at
    # small batch sizes.
    gates[:, :3 * d] = sigmoid(gates[:, :3 * d])
    np.tanh(gates[:, 3 * d:], out=gates[:, 3 * d:])
    i, f, o, g = (gates[:, k * d:(k + 1) * d] for k in range(4))
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return o * tc, c, tc


def lstm_gates_backward(dh, dc, gates, tc, c_prev):
    """Backward through the gate nonlinearities, in place on the gate block.

    dh, dc: (B, d) gradients w.r.t. h and c; gates: the (B, 4d) activations
    [i f o g] of ``lstm_gates_forward``, overwritten with d(pre); tc: tanh c.
    Returns dc_prev.
    """
    d = dh.shape[1]
    i, f, o, g = (gates[:, k * d:(k + 1) * d] for k in range(4))
    dct = dc + dh * o * (1.0 - tc * tc)
    dc_prev = dct * f
    # every right-hand side is computed before any gate is overwritten
    i[:], f[:], o[:], g[:] = (dct * g * i * (1.0 - i), dct * c_prev * f * (1.0 - f),
                              dh * tc * o * (1.0 - o), dct * i * (1.0 - g * g))
    return dc_prev


def attention_forward(hh, zz, z, valid, wav, u):
    """Context vectors and weights of attention over the rows of ``z`` where
    ``valid``, scored by ``wav`` . tanh(hh + zz); the tanh goes into ``u``."""
    np.tanh(np.add(hh[:, None, :], zz, out=u), out=u)
    e = np.where(valid, u @ wav, -np.inf)
    e = e - e.max(axis=1, keepdims=True)
    ex = np.exp(e)
    alpha = ex / ex.sum(axis=1, keepdims=True)
    return np.einsum("bk,bkd->bd", alpha, z), alpha


def attention_backward(g, z, u, alpha, wav, dpre):
    """Score gradients from d(context) ``g``; those of the tanh inputs go into
    ``dpre``, in place, so that no large temporary is freed and faulted in again."""
    dalpha = np.einsum("bd,bkd->bk", g, z)
    de = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    np.subtract(1.0, np.multiply(u, u, out=dpre), out=dpre)
    dpre *= de[:, :, None]
    dpre *= wav
    return de


def _unit_rows(vecs):
    """Rows of ``vecs`` scaled to unit length, and their norms."""
    norms = np.sqrt((vecs * vecs).sum(axis=1))
    if (norms == 0.0).any():
        raise DomainError("cosine is undefined for zero-norm vectors")
    return vecs / norms[:, None], norms


def pair_cosines_forward(vecs):
    """All-pairs cosine matrix ``U @ U.T`` of the rows of ``vecs`` (n, d),
    with ``U`` the rows normalised once. A zero-norm row is a DomainError."""
    unit, _ = _unit_rows(vecs)
    return unit @ unit.T


def pair_cosines_backward(dcos, vecs):
    """d(loss)/d(vecs) from d(loss)/d(cosine matrix) ``dcos``: ``(G + G^T) @ U``,
    then the normalisation backward (each row's orthogonal part over its norm)."""
    unit, norms = _unit_rows(vecs)
    dunit = (dcos + dcos.T) @ unit
    radial = (dunit * unit).sum(axis=1)
    return (dunit - unit * radial[:, None]) / norms[:, None]


def scatter_rows(ids, values, n):
    """Rows of ``values`` (m, w) summed into an (n, w) array at rows ``ids``.

    One bincount over the flat cells adds repeated rows in pick order, as
    ``np.add.at`` would, so the sums have the same bits.
    """
    w = values.shape[1]
    cells = (ids[:, None] * w + np.arange(w)).ravel()
    return np.bincount(cells, weights=values.ravel(), minlength=n * w).reshape(n, w)


def scatter_cells(dpicks, picks, n):
    """(n, n) gradient from the gradients ``dpicks[k]`` of the picks
    ``m[left, right]`` of each ``picks[k]``: a list's picks of a cell add in
    pick order, then the lists add per cell in list order, as ``np.add.at``
    into one zeroed matrix per list, summed, would."""
    dm = np.zeros((n, n))
    for g, (left, right) in zip(dpicks, picks):
        cells, at = np.unique(left * n + right, return_inverse=True)
        dm.reshape(-1)[cells] += np.bincount(at, weights=g)
    return dm


def lcs_length(a, b):
    """Length of the longest common subsequence of two token sequences.

    Bit-parallel over Python ints (Allison & Dix 1986; Hyyrö 2004): bit i of
    ``masks[t]`` is set where ``a[i] == t``, and each token of ``b`` updates
    the bit vector ``v`` of ``len(a)`` bits in a few integer operations. The
    LCS length is the number of zero bits of ``v``. Carries out of the top
    bit never reach the bits below it, so they are masked once at the end.
    """
    masks = {}
    for i, tok in enumerate(a):
        masks[tok] = masks.get(tok, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for tok in b:
        u = v & masks.get(tok, 0)
        v = (v + u) | (v - u)
    return len(a) - (v & full).bit_count()


def iou_matrix(boxes_a, boxes_b):
    """Pairwise IoU of two (n, 4) / (m, 4) arrays of (x0, y0, x1, y1)."""
    ax0, ay0, ax1, ay1 = (boxes_a[:, k][:, None] for k in range(4))
    bx0, by0, bx1, by1 = (boxes_b[:, k][None, :] for k in range(4))
    iw = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
    ih = np.minimum(ay1, by1) - np.maximum(ay0, by0)
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union
