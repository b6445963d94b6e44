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
once, a ``ReferenceIndex`` counts each reference's 1..4-grams once and keeps
what BLEU and CIDEr-D derive from them: per image, the reference lengths
and the clipped maximum counts; one idf per n-gram; per reference, the
tf-idf vectors, norms and bigram length. ``metric_table`` builds one index,
counts each candidate's n-grams once, and takes BLEU-1..4 from one pass of
integer counts. Every float is produced by the same expression, in the same
order, as in the per-call scorers the index replaced (kept in
``tests/metric_reference.py``), so the scores keep every bit: early
stopping compares CIDEr with a strict ``>``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

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


def _ngram_counts(tokens: list[str]) -> list[dict]:
    """The 1..4-gram counts of ``tokens``, one dict per order, each in order
    of first occurrence."""
    t2 = tokens[1:]
    t3 = tokens[2:]
    t4 = tokens[3:]
    out = []
    for ngrams in (zip(tokens), zip(tokens, t2), zip(tokens, t2, t3), zip(tokens, t2, t3, t4)):
        counts = {}
        for ngram in ngrams:
            counts[ngram] = counts.get(ngram, 0) + 1
        out.append(counts)
    return out


def _check_bleu_corpus(corpus: EvaluationCorpus) -> None:
    if len(corpus) == 0:
        raise DomainError("BLEU of an empty corpus is undefined")


def _check_cider_corpus(corpus: EvaluationCorpus) -> None:
    if len(corpus) < 2:
        raise DomainError(
            "CIDEr needs at least 2 images: its IDF is computed over the "
            "reference corpus with document = image"
        )


class ReferenceIndex:
    """The references of a corpus, processed once for BLEU and CIDEr-D.

    Each reference's 1..4-gram counts are taken once. From them the index
    keeps, per image, the reference lengths and BLEU's clip (the maximum
    count of each n-gram over the image's references). CIDEr-D's part is
    built on first use: one idf per n-gram, with document = image, and per
    reference its tf-idf vectors, norms and bigram length.
    """

    def __init__(self, references: list[list[list[str]]]):
        if not references:
            raise DomainError("a reference index needs at least one image")
        self.ref_lens = [[len(r) for r in refs] for refs in references]
        self.ref_counts = [[_ngram_counts(r) for r in refs] for refs in references]
        self.clips = [_clip_counts(counts) for counts in self.ref_counts]
        self.log_m = math.log(len(references))

    @cached_property
    def idf(self) -> dict:
        # An image's clip holds every n-gram of its references exactly once.
        df = Counter(g for clip in self.clips for order in clip for g in order)
        return {g: self.log_m - math.log(max(1.0, d)) for g, d in df.items()}

    @cached_property
    def ref_vecs(self) -> list:
        return [[self.tfidf(c) for c in counts] for counts in self.ref_counts]

    def tfidf(self, counts: list[dict]):
        """(per-order tf-idf vectors, their norms, bigram length) of counts.

        An n-gram no reference holds has document frequency 0 and the idf
        ``log_m``, as ``log_m - log(max(1, 0))`` gives.
        """
        idf = self.idf.get
        log_m = self.log_m
        vec = []
        norm = []
        for order in counts:
            weights = {g: tf * idf(g, log_m) for g, tf in order.items()}
            sq = 0.0
            for w in weights.values():
                sq += w**2
            vec.append(weights)
            norm.append(math.sqrt(sq))
        # the reference code measures length in bigrams
        return vec, norm, sum(counts[1].values())


def _clip_counts(ref_counts: list[list[dict]]) -> list[dict]:
    clip = [{} for _ in range(MAX_N)]
    for counts in ref_counts:
        for order, best in zip(counts, clip):
            for ngram, count in order.items():
                if count > best.get(ngram, 0):
                    best[ngram] = count
    return clip


def _cook(corpus: EvaluationCorpus) -> tuple[ReferenceIndex, list[list[dict]]]:
    """The corpus's reference index and each candidate's n-gram counts."""
    index = ReferenceIndex([refs for _, refs in corpus.entries])
    return index, [_ngram_counts(cand) for cand, _ in corpus.entries]


def _bleu_all(corpus: EvaluationCorpus, index: ReferenceIndex, cand_counts) -> list[float]:
    """BLEU-1..4 from one pass over the corpus."""
    guess = [0] * MAX_N
    correct = [0] * MAX_N
    total_testlen = 0
    total_reflen = 0.0
    for (cand, _), counts, lens, clip in zip(
        corpus.entries, cand_counts, index.ref_lens, index.clips
    ):
        testlen = len(cand)
        total_testlen += testlen
        total_reflen += min((abs(r - testlen), r) for r in lens)[1]
        for k in range(MAX_N):
            guess[k] += max(0, testlen - k)
            best = clip[k]
            correct[k] += sum(min(c, best.get(g, 0)) for g, c in counts[k].items())
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
    return _bleu_all(corpus, *_cook(corpus))[n - 1]


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


def _cider_sim(vec_c, vec_r, norm_c, norm_r, len_c, len_r) -> list[float]:
    delta = float(len_c - len_r)
    penalty = math.exp(-(delta**2) / (2.0 * CIDER_SIGMA**2))
    vals = []
    for k in range(MAX_N):
        acc = 0.0
        ref = vec_r[k]
        for ngram, weight in vec_c[k].items():
            r = ref.get(ngram, 0.0)
            acc += (r if r < weight else weight) * r  # min(weight, r)
        if norm_c[k] != 0.0 and norm_r[k] != 0.0:
            acc /= norm_c[k] * norm_r[k]
        vals.append(acc * penalty)
    return vals


def _cider(index: ReferenceIndex, cand_counts) -> float:
    scores = []
    for counts, ref_vecs in zip(cand_counts, index.ref_vecs):
        vec_c, norm_c, len_c = index.tfidf(counts)
        acc = [0.0] * MAX_N
        for vec_r, norm_r, len_r in ref_vecs:
            vals = _cider_sim(vec_c, vec_r, norm_c, norm_r, len_c, len_r)
            acc = [a + v for a, v in zip(acc, vals)]
        scores.append(float(np.mean(acc)) / len(ref_vecs) * 10.0)
    return float(np.mean(scores))


def cider(corpus: EvaluationCorpus) -> float:
    """CIDEr-D consensus score (raw scale, roughly [0, 10])."""
    _check_cider_corpus(corpus)
    return _cider(*_cook(corpus))


def metric_table(corpus: EvaluationCorpus) -> dict[str, float]:
    """All metrics of a corpus, scaled by 100 for reporting, from one
    reference index and one count of each candidate's n-grams."""
    _check_bleu_corpus(corpus)
    _check_cider_corpus(corpus)
    index, cand_counts = _cook(corpus)
    b1, b2, b3, b4 = _bleu_all(corpus, index, cand_counts)
    return {
        "BLEU-1": 100.0 * b1,
        "BLEU-2": 100.0 * b2,
        "BLEU-3": 100.0 * b3,
        "BLEU-4": 100.0 * b4,
        "ROUGE-L": 100.0 * rouge_l(corpus),
        "CIDEr": 100.0 * _cider(index, cand_counts),
    }
