"""Loop versions of the grounding samplers, the cell and row scatters,
the masked-branch sigmoid and the array kernels.

These are the definitions the vectorised code in ``groundcap.losses`` and
``groundcap.kernels`` must reproduce: the samplers, the ``np.add.at``
scatters of the picked cells and of rows, and the sigmoid bit for bit (the
same index arrays, gradient and sigmoid bits and generator state after
each call), and the ``*_loop`` kernels, which
accumulate one element at a time, within the tolerances in ``tests/test_kernels.py``
(exactly, for the dynamic-programming LCS). The cosine-matrix loops
differentiate each cell on its own, as the per-pair formula does, so they
also check the matrix backward's ``(G + G^T) @ U`` and normalisation steps.
``cosine`` is the two-vector formula the tests compare structure numbers
with. ``box_is_valid`` is the box rule one box at a time, which the array
check in ``groundcap.data`` must agree with on every float, NaN and
infinities included. ``generate_synthetic_dataset`` draws each object's label
and box bounds with scalar calls; the generator in ``groundcap.data`` must
make the same arrays and leave its generator in the same state.
"""

import math

import numpy as np

from groundcap.data import (
    LABEL_POOL,
    UNK_CLASS_NAME,
    ClassTable,
    Dataset,
    ImageExample,
    SyntheticSpec,
    _caption_for,
    _class_groups,
    class_prototypes,
)
from groundcap.errors import DomainError, ShapeError
from groundcap.losses import LabeledProjection


def sample_triplets(
    pool: LabeledProjection, n_draws: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = pool.size
    anchors, positives, negatives = [], [], []
    if n == 0:
        return (np.zeros(0, np.int64),) * 3
    by_class: dict[int, np.ndarray] = {
        c: np.flatnonzero(pool.class_ids == c) for c in np.unique(pool.class_ids)
    }
    rank_in_class = np.empty(n, dtype=np.int64)
    for members in by_class.values():
        rank_in_class[members] = np.arange(len(members))
    others = {c: np.flatnonzero(pool.class_ids != c) for c in by_class}
    for _ in range(n_draws):
        i = int(rng.integers(n))
        c = pool.class_ids[i]
        mates = by_class[c]
        rest = others[c]
        if len(mates) < 2 or len(rest) == 0:
            continue
        j = int(rng.integers(len(mates) - 1))
        if j >= rank_in_class[i]:
            j += 1
        k = int(rng.integers(len(rest)))
        anchors.append(i)
        positives.append(int(mates[j]))
        negatives.append(int(rest[k]))
    return (
        np.asarray(anchors, dtype=np.int64),
        np.asarray(positives, dtype=np.int64),
        np.asarray(negatives, dtype=np.int64),
    )


def sample_pairs(
    pool: LabeledProjection, n_draws: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    n = pool.size
    left, right = [], []
    if n < 2:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    for _ in range(n_draws):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        if pool.class_ids[i] == pool.class_ids[j]:
            continue
        left.append(i)
        right.append(j)
    return np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64)


def scatter_cells(dpicks, picks, n):
    dm = np.zeros((n, n))
    for g, (left, right) in zip(dpicks, picks):
        one = np.zeros((n, n))
        np.add.at(one, (left, right), g)
        dm += one
    return dm


def scatter_rows(ids, values, n):
    out = np.zeros((n, values.shape[1]))
    np.add.at(out, ids, values)
    return out


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def lstm_gates_forward_loop(pre, c_prev):
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


def lstm_gates_backward_loop(dh, dc, i, f, o, g, tc, c_prev):
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


def cosine(u, v) -> float:
    """Cosine similarity of two vectors; zero-norm inputs are an error."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.shape != v.shape:
        raise ShapeError(f"cosine needs equal lengths, got {u.shape} and {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DomainError("cosine is undefined for zero-norm vectors")
    return float(np.dot(u, v) / (nu * nv))


def _norm_loop(vecs, i):
    total = 0.0
    for j in range(vecs.shape[1]):
        total += vecs[i, j] * vecs[i, j]
    return math.sqrt(total)


def pair_cosines_forward_loop(vecs):
    n, d = vecs.shape
    cos = np.empty((n, n))
    for p in range(n):
        for q in range(n):
            dot = 0.0
            for j in range(d):
                dot += vecs[p, j] * vecs[q, j]
            cos[p, q] = dot / (_norm_loop(vecs, p) * _norm_loop(vecs, q))
    return cos


def pair_cosines_backward_loop(dcos, vecs):
    # d cos(u, v) / du = v / (|u| |v|) - u cos(u, v) / |u|^2, one cell at a time
    n, d = vecs.shape
    cos = pair_cosines_forward_loop(vecs)
    dvecs = np.zeros_like(vecs)
    for p in range(n):
        for q in range(n):
            norm_p = _norm_loop(vecs, p)
            norm_q = _norm_loop(vecs, q)
            inv = 1.0 / (norm_p * norm_q)
            s = dcos[p, q]
            for j in range(d):
                dvecs[p, j] += s * (vecs[q, j] * inv - vecs[p, j] * cos[p, q] / (norm_p * norm_p))
                dvecs[q, j] += s * (vecs[p, j] * inv - vecs[q, j] * cos[p, q] / (norm_q * norm_q))
    return dvecs


def lcs_length_loop(a, b):
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


def iou_matrix_loop(boxes_a, boxes_b):
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


def box_is_valid(x_min, y_min, x_max, y_max) -> bool:
    # chained comparisons also reject NaN and infinite coordinates
    inf = float("inf")
    return -inf < x_min < x_max < inf and -inf < y_min < y_max < inf


def _random_box(rng: np.random.Generator) -> tuple[float, float, float, float]:
    x0 = rng.uniform(0.0, 0.55)
    y0 = rng.uniform(0.0, 0.55)
    w = rng.uniform(0.1, 0.4)
    h = rng.uniform(0.1, 0.4)
    return x0, y0, min(x0 + w, 1.0), min(y0 + h, 1.0)


def generate_synthetic_dataset(spec: SyntheticSpec, seed: int) -> Dataset:
    spec.validate()
    rng = np.random.default_rng(seed)
    protos = class_prototypes(spec, rng)
    groups = _class_groups(spec.num_classes)
    names = {c: LABEL_POOL[c] for c in range(spec.num_classes)}
    names[spec.num_classes] = UNK_CLASS_NAME
    examples = []
    for m in range(spec.images):
        gi = int(rng.integers(len(groups)))
        k = int(rng.integers(spec.objects_min, spec.objects_max + 1))
        members = groups[gi]
        first = int(rng.integers(len(members)))
        second = int(rng.integers(len(members) - 1))
        if second >= first:
            second += 1
        present = [members[first], members[second]]
        labels = [present[int(rng.integers(len(present)))] for _ in range(k)]
        feats = protos[labels] + spec.spread * rng.standard_normal((k, spec.feature_size))
        boxes = [_random_box(rng) for _ in range(k)]
        swap = bool(rng.random() < spec.caption_order_noise)
        captions = [_caption_for(labels, names, swap)] * spec.captions_per_image
        examples.append(ImageExample(image_id=f"synth-{m:06d}", features=feats, boxes=boxes,
                                     labels=labels, captions=captions))
    n_train = int(spec.images * 0.8)
    n_val = int(spec.images * 0.1)
    return Dataset(train=examples[:n_train], val=examples[n_train : n_train + n_val],
                   test=examples[n_train + n_val :], class_table=ClassTable(names=names))
