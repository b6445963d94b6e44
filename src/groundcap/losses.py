"""Training objective: caption cross-entropy plus two grounding losses.

The grounding losses act on the pool of all projected object vectors of a
batch's images (UNK-labeled and zero-norm vectors are excluded):

* cluster loss — max-margin ranking over sampled triplets (anchor,
  same-class, other-class): mean of max(0, margin - cos(a, p) + cos(a, n))
  over the valid triplets.
* perceptual loss — negative Pearson correlation between the cosine
  similarities of sampled cross-class vector pairs and the cosine
  similarities of their class labels' word embeddings. Multi-word labels
  embed as the unweighted mean of their token embeddings.

Both samplers draw with replacement and discard draws that cannot satisfy
the class constraints; losses normalize by the number of valid draws, and
zero valid draws yields a constant 0 contribution. Each sampler owns its
own RNG stream so toggling one loss never perturbs the other's draws.

Sampler stream contract. The draws are defined as a sequence of scalar
``rng.integers(bound)`` calls, and the vectorised samplers reproduce that
sequence exactly: same index arrays, and the generator left in the same
state, so training runs are bit-identical to the per-draw definition.

* ``sample_pairs`` draws, per draw, ``i`` with bound ``n`` then ``j`` with
  bound ``n - 1``; it draws nothing for a pool of fewer than 2 rows.
* ``sample_triplets`` draws, per draw, the anchor with bound ``n``; only if
  the anchor's class ``c`` has a classmate and the pool has another class
  does it go on to draw the positive's rank with bound ``m_c - 1`` and the
  negative's rank with bound ``n - m_c`` (``m_c`` = rows of class ``c``).
  It draws nothing for an empty pool.

A draw with bound 1 returns 0 and consumes nothing from the generator; any
other bound consumes one 32-bit value unless Lemire's method rejects it.
An array-valued ``rng.integers(0, bounds)`` equals the scalar calls made
with the same bounds in order, which the samplers rely on.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DegenerateStatisticsError, DomainError

log = logging.getLogger(__name__)


@dataclass
class LabeledProjection:
    """Projected object vectors pooled over a batch, with their class ids.

    ``rows`` indexes into ``vectors`` (a possibly larger matrix); only
    labeled, non-zero-norm rows are kept.
    """

    vectors: Tensor  # (N, d), superset matrix
    rows: np.ndarray  # (n,) indices of usable rows
    class_ids: np.ndarray  # (n,) class per usable row

    @property
    def size(self) -> int:
        return len(self.rows)


def build_projection_pool(vectors: Tensor, labels: np.ndarray, unk_id: int) -> LabeledProjection:
    """Filter UNK-labeled and zero-norm rows out of the batch pool."""
    labels = np.asarray(labels, dtype=np.int64)
    norms = np.linalg.norm(vectors.data, axis=1)
    zero = norms == 0.0
    if zero.any():
        log.warning("excluding %d zero-norm projected vectors from the grounding pool", int(zero.sum()))
    keep = (~zero) & (labels != unk_id)
    rows = np.flatnonzero(keep)
    return LabeledProjection(vectors=vectors, rows=rows, class_ids=labels[rows])


def batch_cross_entropy(per_example_logprob: Tensor) -> Tensor:
    """Mean over examples of the per-caption mean NLL (tape node)."""
    return ad.neg(ad.mean_(per_example_logprob))


def sample_triplets(
    pool: LabeledProjection, n_draws: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anchor / same-class / other-class index triples into the pool.

    Each of the ``n_draws`` draws picks the anchor uniformly, a positive
    uniformly among the anchor's classmates and a negative uniformly among
    other classes; draws without a possible positive or negative are
    discarded. Indices refer to pool-internal positions (0..size-1).

    The bounds of a draw's second and third values depend on its anchor, so
    the stream is found as a fixed point: guess every anchor, draw the whole
    stream with the bounds the guess implies, read the anchors back, and
    redraw from the saved state until they agree. Each pass fixes at least
    one more anchor, and the first guess is normally right already.
    """
    n = pool.size
    empty = np.zeros(0, np.int64)
    if n == 0 or n_draws <= 0:
        return empty, empty, empty
    cls, size = np.unique(pool.class_ids, return_inverse=True, return_counts=True)[1:]
    order = np.argsort(cls, kind="stable")  # rows grouped by class, row order within
    start = np.cumsum(size) - size  # first position of each class in ``order``
    rank = np.empty(n, np.int64)
    rank[order] = np.arange(n) - start[cls[order]]
    mates = size[cls]  # class size of each row, the row included
    ok = (mates >= 2) & (mates < n)

    saved = rng.bit_generator.state
    # First guess: read every stream value as an anchor and walk the stream by
    # the values each anchor's draw consumes (a bound of 1 consumes none).
    stream = rng.integers(n, size=3 * n_draws)
    consumed = 1 + (ok & (mates > 2)) + (ok & (mates < n - 1))
    anchors = stream[_walk(consumed[stream], n_draws)]
    while True:
        rng.bit_generator.state = saved
        valid = ok[anchors]
        width = 1 + 2 * valid
        at = np.cumsum(width) - width  # position of each draw's anchor
        bounds = np.empty(int(width.sum()), np.int64)
        bounds[at] = n
        bounds[at[valid] + 1] = mates[anchors[valid]] - 1
        bounds[at[valid] + 2] = n - mates[anchors[valid]]
        values = rng.integers(0, bounds)
        drawn = values[at]
        if np.array_equal(drawn, anchors):
            break
        anchors = drawn

    a = anchors[valid]
    j = values[at[valid] + 1]
    j += j >= rank[a]
    k = values[at[valid] + 2]
    c = cls[a]
    # The k-th row outside class c is k plus the number of class-c rows with
    # at most k non-members before them; ``gap`` counts those non-members and
    # rises within a class, so one sorted key serves every class.
    gap = order - rank[order]
    key = cls[order] * n + gap
    negatives = k + np.searchsorted(key, c * n + k, side="right") - start[c]
    return a, order[start[c] + j], negatives


def _walk(step: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` stops of the walk 0, step[0], ... by pointer doubling.

    Every stop reached must lie inside ``step``.
    """
    size = len(step)
    jump = np.minimum(np.arange(size) + step, size - 1)
    t = np.arange(count)
    stops = np.zeros(count, np.int64)
    bit = 1
    while bit < count:
        stops = np.where(t & bit, jump[stops], stops)
        jump = jump[jump]
        bit <<= 1
    return stops


def cluster_loss(
    pool: LabeledProjection,
    triplets: tuple[np.ndarray, np.ndarray, np.ndarray],
    margin: float,
) -> Tensor:
    """Mean hinge over valid triplets; constant 0 when there are none."""
    anchors, positives, negatives = triplets
    if len(anchors) == 0:
        return Tensor(0.0)
    rows = pool.rows
    cos_ap = ad.pair_cosines(pool.vectors, rows[anchors], rows[positives])
    cos_an = ad.pair_cosines(pool.vectors, rows[anchors], rows[negatives])
    hinge = ad.relu(ad.add(ad.sub(Tensor(margin), cos_ap), cos_an))
    return ad.mean_(hinge)


def sample_pairs(
    pool: LabeledProjection, n_draws: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Cross-class index pairs into the pool (unordered, with replacement)."""
    n = pool.size
    if n < 2 or n_draws <= 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    draws = rng.integers(0, np.tile([n, n - 1], n_draws))
    left = draws[0::2]
    right = draws[1::2]
    right += right >= left
    keep = pool.class_ids[left] != pool.class_ids[right]
    return left[keep], right[keep]


def label_embedding(
    class_id: int, w_e: np.ndarray, class_tokens: dict[int, list[int]]
) -> np.ndarray:
    """Word vector of a class: its token's embedding column, or the mean
    of the constituent tokens' columns for multi-word labels."""
    if class_id not in class_tokens:
        raise DomainError(f"class {class_id} has no label embedding (UNK or unknown)")
    cols = class_tokens[class_id]
    return np.asarray(w_e)[:, cols].mean(axis=1)


def label_embedding_matrix(
    w_e: Tensor, class_ids: np.ndarray, class_tokens: dict[int, list[int]]
) -> tuple[Tensor, np.ndarray]:
    """Stack the label embeddings of the distinct classes in ascending order;
    returns (matrix, matrix row of each entry of ``class_ids``)."""
    present, row = np.unique(class_ids, return_inverse=True)
    present = present.tolist()
    missing = [c for c in present if c not in class_tokens]
    if missing:
        raise DomainError(f"classes {missing} have no label tokens")
    groups = [np.asarray(class_tokens[c], dtype=np.int64) for c in present]
    return ad.column_group_mean(w_e, groups), row


def perceptual_loss(
    pool: LabeledProjection,
    pairs: tuple[np.ndarray, np.ndarray],
    w_e: Tensor,
    class_tokens: dict[int, list[int]],
) -> Tensor:
    """Negative correlation between object- and word-space pair similarities.

    Returns a constant 0 (logged) when fewer than 2 valid pairs exist or
    either similarity list has zero variance.
    """
    left, right = pairs
    if len(left) < 2:
        log.warning("perceptual loss skipped: %d valid cross-class pairs", len(left))
        return Tensor(0.0)
    rows = pool.rows
    sim_obj = ad.pair_cosines(pool.vectors, rows[left], rows[right])
    classes = np.concatenate([pool.class_ids[left], pool.class_ids[right]])
    embeddings, row = label_embedding_matrix(w_e, classes, class_tokens)
    sim_text = ad.pair_cosines(embeddings, row[: len(left)], row[len(left) :])
    try:
        correlation = ad.pearson_t(sim_obj, sim_text)
    except DegenerateStatisticsError as err:
        log.warning("perceptual loss skipped: %s", err)
        return Tensor(0.0)
    return ad.neg(correlation)


def total_loss(
    l_xe: Tensor,
    l_c: Tensor | None,
    l_p: Tensor | None,
    cluster_weight: float,
    perceptual_weight: float,
) -> Tensor:
    """Weighted sum of the enabled heads; disabled heads leave l_xe intact."""
    total = l_xe
    if l_c is not None:
        total = ad.add(total, ad.mul(Tensor(cluster_weight), l_c))
    if l_p is not None:
        total = ad.add(total, ad.mul(Tensor(perceptual_weight), l_p))
    return total
