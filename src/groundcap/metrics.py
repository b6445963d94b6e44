"""Corpus-level caption metrics: BLEU-1..4, ROUGE-L and CIDEr-D.

The computations replicate the widely used coco-caption scorers down to
their numerical quirks so that scores are interchangeable with that
implementation:

* BLEU aggregates clipped n-gram counts over the corpus, uses the
  per-image reference length closest to the candidate length (ties to the
  shorter), applies the brevity penalty exp(1 - r/c) when c < r, and
  carries the reference's tiny/small epsilon constants.
* ROUGE-L takes, per image, the maximum LCS precision and maximum LCS
  recall over the references separately and combines them with beta = 1.2.
* CIDEr-D builds tf-idf vectors over 1..4-grams with document = image,
  clips candidate counts at the reference count, weights by a Gaussian
  penalty (sigma = 6) on the length difference, scales by 10, and averages
  over n and references. Sentence length enters as the bigram count, as in
  the reference code.

All scorers consume pre-tokenized captions (lists of token strings) and
are invariant to the order of images and of references within an image.

As coco-caption's ``BleuScorer`` and ``CiderScorer`` cook their references
once, ``NgramTables`` interns a corpus's 1..4-grams once, as arrays: token
ids; n-gram ids per order from ``np.unique`` over (previous-order id, next
token); one entry per (sentence, n-gram) with its count and the place of
its first occurrence; and, through one sorted key and ``searchsorted``, the
entry of each candidate n-gram in each reference of its image. BLEU-1..4
take their clipped counts from those lookups as integers; CIDEr-D takes
the document frequency per image, the weights, norms and similarities from
whole-array operations. Early stopping compares CIDEr with a strict ``>``,
so the scores keep every bit of the per-call dict scorers the tables
replaced (kept in ``tests/metric_reference.py``), by three rules:

(a) ``log``, ``exp`` and the square ``w**2`` go through ``math`` and Python's
    ``**``, applied only to the distinct values (document frequencies,
    integer length differences and weights): numpy's ufuncs round a few
    arguments differently (``_idf``, ``_penalty``, ``_square``).
(b) Every sum the dict scorers ran left to right from 0.0 (the norms, each
    reference's similarity and the sum over references) still does:
    ``_left_sums`` adds a zero-padded (width, groups) block one rank at a
    time, where ``np.add.reduce`` would sum pairwise from 8 terms on.
(c) The per-image mean over the 4 orders is ``(((c0 + c1) + c2) + c3) / 4.0``,
    then ``/ len(refs) * 10.0``, for all images at once: numpy's ``np.mean``
    of 4 values, which the dict scorers called per image, adds them left to
    right from 0.0 (a test pins this on rows where other orders round
    differently). The mean over images is the same ``np.mean`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import kernels
from .errors import DataValidationError, DomainError

_TINY = 1e-15
_SMALL = 1e-9
ROUGE_BETA = 1.2
MAX_N = 4  # n-gram orders of BLEU and CIDEr-D
CIDER_SIGMA = 6.0


@dataclass
class EvaluationCorpus:
    """Per-image candidate tokens and non-empty reference token lists."""

    entries: list[tuple[list[str], list[list[str]]]]

    def __post_init__(self):
        for idx, (cand, refs) in enumerate(self.entries):
            if not refs:
                raise DataValidationError(f"image {idx} has no references")
            if any(len(r) == 0 for r in refs):
                raise DataValidationError(f"image {idx} has an empty reference")
            if not all(isinstance(t, str) for t in cand):
                raise DataValidationError(f"image {idx}: candidate must be token strings")

    def __len__(self):
        return len(self.entries)


def _check_bleu_corpus(corpus: EvaluationCorpus) -> None:
    if len(corpus) == 0:
        raise DomainError("BLEU of an empty corpus is undefined")


def _check_cider_corpus(corpus: EvaluationCorpus) -> None:
    if len(corpus) < 2:
        raise DomainError(
            "CIDEr needs at least 2 images: its IDF is computed over the "
            "reference corpus with document = image"
        )


class NgramTables:
    """The 1..4-grams of a corpus's candidates and references, interned as arrays.

    Sentences are numbered candidates first (sentence ``i`` is image ``i``'s
    candidate), then the references, image by image. Tokens get ids in order
    of first appearance; the ids of the (k+1)-grams come from ``np.unique``
    over (k-gram id, next token). Every packed key is at most the number of
    token positions squared, so it stays far below int64's limit, where a
    key packed from k token ids (vocabulary ** k) could overflow.
    ``orders[k]`` holds the (k+1)-grams.
    """

    def __init__(self, corpus: EvaluationCorpus):
        cands = [cand for cand, _ in corpus.entries]
        refs = [ref for _, image_refs in corpus.entries for ref in image_refs]
        self.n_images = len(cands)
        self.n_refs = np.fromiter((len(r) for _, r in corpus.entries), np.int64, self.n_images)
        self.ref_start = np.cumsum(self.n_refs) - self.n_refs
        self.ref_image = np.repeat(np.arange(self.n_images), self.n_refs)
        sentences = cands + refs
        lens = np.fromiter(map(len, sentences), np.int64, len(sentences))
        self.n_sentences = len(sentences)
        self.cand_len, self.ref_len = lens[: self.n_images], lens[self.n_images :]
        flat = list(chain.from_iterable(sentences))
        vocab = {t: i for i, t in enumerate(dict.fromkeys(flat))}
        tokens = np.fromiter(map(vocab.__getitem__, flat), np.int64, len(flat))
        sent = np.repeat(np.arange(len(sentences)), lens)
        # the number of tokens from each position to the end of its sentence
        left = np.repeat(np.cumsum(lens), lens) - np.arange(len(flat))
        self.orders = []
        grams, n_grams = tokens, len(vocab)
        for k in range(MAX_N):
            at = np.flatnonzero(left > k)  # the positions where a (k+1)-gram starts
            if k:
                ids, inv = np.unique(grams[at] * len(vocab) + tokens[at + k], return_inverse=True)
                grams = np.empty_like(tokens)
                grams[at] = inv
                n_grams = len(ids)
            self.orders.append(_Order(self, sent[at], grams[at], max(n_grams, 1)))


class _Order:
    """One order's (sentence, n-gram) entries and the candidate-against-reference
    lookups.

    The entries are sorted by the key sentence * ``width`` + n-gram id, with
    each n-gram's count in its sentence and ``rank``, the place of its first
    occurrence among the sentence's entries. The candidates' entries come
    first (``n_cand`` of them). One row per (candidate entry, reference of its
    image) holds ``pair_entry``, ``pair_ref`` and ``pair_hit``, the reference's
    entry of the same n-gram or -1.
    """

    def __init__(self, tables: NgramTables, sent: np.ndarray, grams: np.ndarray, width: int):
        self.width = width
        key, first, self.count = np.unique(
            sent * width + grams, return_index=True, return_counts=True
        )
        self.sent, self.gram = np.divmod(key, width)
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(len(first))
        self.rank = rank - np.searchsorted(self.sent, self.sent)
        self.n_cand = int(np.searchsorted(self.sent, tables.n_images))
        image = self.sent[: self.n_cand]
        reps = tables.n_refs[image]
        self.pair_start = np.cumsum(reps) - reps
        self.pair_entry = np.repeat(np.arange(self.n_cand), reps)
        self.pair_ref = np.arange(len(self.pair_entry)) + np.repeat(
            tables.ref_start[image] - self.pair_start, reps
        )
        wanted = (tables.n_images + self.pair_ref) * width + self.gram[self.pair_entry]
        hit = np.minimum(np.searchsorted(key, wanted), len(key) - 1)
        self.pair_hit = np.where(key[hit] == wanted, hit, -1)


def _per_distinct(f, values: np.ndarray, *args) -> np.ndarray:
    """``f`` of each distinct value of ``values``, spread back to every entry."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return f(distinct, *args)[inverse]


def _idf(df: np.ndarray, log_m: float) -> np.ndarray:
    """CIDEr-D's idf of each document frequency, through ``math.log``.

    An n-gram no reference holds has document frequency 0 and the idf
    ``log_m``, as ``log_m - log(max(1, 0))`` gives.
    """
    return np.array([log_m - math.log(max(1.0, d)) for d in df.tolist()], dtype=np.float64)


def _square(weights: np.ndarray) -> np.ndarray:
    """Each weight's Python ``w**2``, which is not always numpy's ``w*w``."""
    return np.array([w**2 for w in weights.tolist()], dtype=np.float64)


def _penalty(delta: np.ndarray) -> np.ndarray:
    """CIDEr-D's Gaussian length penalty of each integer length difference,
    through ``math.exp``."""
    return np.array(
        [math.exp(-(float(d) ** 2) / (2.0 * CIDER_SIGMA**2)) for d in delta.tolist()],
        dtype=np.float64,
    )


def _left_sums(
    values: np.ndarray, rank: np.ndarray, group: np.ndarray, n_groups: int
) -> np.ndarray:
    """Per group, the sum of its values from 0.0, left to right by rank.

    The values go into a zero-padded (width, groups) block that is added one
    rank at a time, so each sum adds in the order of a Python loop; a
    padding zero leaves a sum of non-negative values unchanged.
    """
    width = int(rank.max()) + 1 if len(rank) else 0
    block = np.zeros((width, n_groups) + values.shape[1:])
    block[rank, group] = values
    acc = np.zeros((n_groups,) + values.shape[1:])
    for row in block:
        acc += row
    return acc


def _bleu_all(tables: NgramTables) -> list[float]:
    """BLEU-1..4 from the corpus's integer counts."""
    guess = []
    correct = []
    for k, order in enumerate(tables.orders):
        guess.append(int(np.maximum(tables.cand_len - k, 0).sum()))
        ref_count = np.where(order.pair_hit >= 0, order.count[order.pair_hit], 0)
        clip = np.maximum.reduceat(ref_count, order.pair_start) if order.n_cand else ref_count
        correct.append(int(np.minimum(order.count[: order.n_cand], clip).sum()))
    total_testlen = int(tables.cand_len.sum())
    # per image, the reference length closest to the candidate's, ties to the shorter
    longest = int(tables.ref_len.max()) + 1
    gap = np.abs(tables.ref_len - tables.cand_len[tables.ref_image])
    closest = np.minimum.reduceat(gap * longest + tables.ref_len, tables.ref_start) % longest
    total_reflen = float(closest.sum())
    ratio = (total_testlen + _TINY) / (total_reflen + _SMALL)
    scores = []
    for n in range(1, MAX_N + 1):
        score = 1.0
        for k in range(n):
            score *= (correct[k] + _TINY) / (guess[k] + _SMALL)
        score **= 1.0 / n
        if ratio < 1.0:
            score *= math.exp(1.0 - 1.0 / ratio)
        scores.append(score)
    return scores


def bleu(corpus: EvaluationCorpus, n: int) -> float:
    """Corpus-level BLEU-n in [0, 1]."""
    if not 1 <= n <= 4:
        raise DomainError(f"BLEU order must be in 1..4, got {n}")
    _check_bleu_corpus(corpus)
    return _bleu_all(NgramTables(corpus))[n - 1]


def rouge_l(corpus: EvaluationCorpus) -> float:
    """Mean over images of the LCS F-measure (beta = 1.2) against references."""
    if len(corpus) == 0:
        raise DomainError("ROUGE-L of an empty corpus is undefined")
    beta2 = ROUGE_BETA * ROUGE_BETA
    scores = []
    for cand, refs in corpus.entries:
        if len(cand) == 0:
            scores.append(0.0)
            continue
        precisions = []
        recalls = []
        for ref in refs:
            lcs = kernels.lcs_length(cand, ref)
            precisions.append(lcs / len(cand))
            recalls.append(lcs / len(ref))
        pm = max(precisions)
        rm = max(recalls)
        if pm != 0.0 and rm != 0.0:
            scores.append((1.0 + beta2) * pm * rm / (rm + beta2 * pm))
        else:
            scores.append(0.0)
    return float(np.mean(scores))


def _cider(tables: NgramTables) -> float:
    n_images = tables.n_images
    log_m = math.log(n_images)
    sims = np.zeros((len(tables.ref_len), MAX_N))
    for k, order in enumerate(tables.orders):
        # document frequency: the number of images whose references hold the n-gram
        ref_image = tables.ref_image[order.sent[order.n_cand :] - n_images]
        held = np.unique(ref_image * order.width + order.gram[order.n_cand :])
        df = np.bincount(held % order.width, minlength=order.width)
        weight = order.count * _per_distinct(_idf, df[order.gram], log_m)
        squares = _per_distinct(_square, weight)
        norm = np.sqrt(_left_sums(squares, order.rank, order.sent, tables.n_sentences))
        # each candidate-reference similarity, summed in the candidate's n-gram order
        found = order.pair_hit >= 0
        entry = order.pair_entry[found]
        ref = order.pair_ref[found]
        w_ref = weight[order.pair_hit[found]]
        terms = np.minimum(weight[entry], w_ref) * w_ref
        sim = _left_sums(terms, order.rank[entry], ref, len(sims))
        norm_c = norm[tables.ref_image]
        norm_r = norm[n_images:]
        np.divide(sim, norm_c * norm_r, out=sim, where=(norm_c != 0.0) & (norm_r != 0.0))
        sims[:, k] = sim
    # the reference code measures length in bigrams
    bigrams_c = np.maximum(tables.cand_len - 1, 0)
    bigrams_r = np.maximum(tables.ref_len - 1, 0)
    sims *= _per_distinct(_penalty, bigrams_c[tables.ref_image] - bigrams_r)[:, None]
    # per image, the sum over its references in their order
    ref_rank = np.arange(len(sims)) - tables.ref_start[tables.ref_image]
    c0, c1, c2, c3 = _left_sums(sims, ref_rank, tables.ref_image, n_images).T
    # per image, the mean over the 4 orders as np.mean adds them: left to right
    scores = (((c0 + c1) + c2) + c3) / 4.0 / tables.n_refs * 10.0
    return float(np.mean(scores))


def cider(corpus: EvaluationCorpus) -> float:
    """CIDEr-D consensus score (raw scale, roughly [0, 10])."""
    _check_cider_corpus(corpus)
    return _cider(NgramTables(corpus))


def metric_table(corpus: EvaluationCorpus) -> dict[str, float]:
    """All metrics of a corpus, scaled by 100 for reporting, from one
    set of n-gram tables."""
    _check_bleu_corpus(corpus)
    _check_cider_corpus(corpus)
    tables = NgramTables(corpus)
    b1, b2, b3, b4 = _bleu_all(tables)
    return {
        "BLEU-1": 100.0 * b1,
        "BLEU-2": 100.0 * b2,
        "BLEU-3": 100.0 * b3,
        "BLEU-4": 100.0 * b4,
        "ROUGE-L": 100.0 * rouge_l(corpus),
        "CIDEr": 100.0 * _cider(tables),
    }
