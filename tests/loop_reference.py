"""Per-draw loop versions of the grounding samplers and the pair-cosine scatter,
and the masked-branch sigmoid.

These are the definitions the vectorised code in ``groundcap.losses``,
``groundcap.kernels`` and ``groundcap.numeric`` must reproduce bit for bit:
the same index arrays, the same gradient and sigmoid bits and the same
generator state after each call.
"""

import numpy as np

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


def pair_cosines_backward(dsims, vecs, left, right):
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
    dvecs = np.zeros_like(vecs)
    np.add.at(dvecs, left, du)
    np.add.at(dvecs, right, dv)
    return dvecs


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out
