"""The caption scorers as they stood before the interned n-gram tables.

``_ngram_counts``, ``bleu``, ``rouge_l``, ``_tfidf``, ``_cider_sim``, ``cider`` and
``metric_table`` are the per-call dict scorers that ``groundcap.metrics``
replaced with n-gram arrays interned once per corpus; ``_lcs`` runs the
dynamic-programming LCS of ``loop_reference``. ``tests/test_metrics.py``
requires the array scorers to reproduce these floats bit for bit.
"""

import math
from collections import defaultdict

import numpy as np

from groundcap.errors import DomainError
from groundcap.metrics import CIDER_SIGMA, ROUGE_BETA, EvaluationCorpus, _SMALL, _TINY
from loop_reference import lcs_length_loop

CIDER_N = 4


def _ngram_counts(tokens: list[str], max_n: int) -> dict[tuple[str, ...], int]:
    counts: dict[tuple[str, ...], int] = defaultdict(int)
    for n in range(1, max_n + 1):
        for i in range(len(tokens) - n + 1):
            counts[tuple(tokens[i : i + n])] += 1
    return counts


def bleu(corpus: EvaluationCorpus, n: int) -> float:
    """Corpus-level BLEU-n in [0, 1]."""
    if not 1 <= n <= 4:
        raise DomainError(f"BLEU order must be in 1..4, got {n}")
    if len(corpus) == 0:
        raise DomainError("BLEU of an empty corpus is undefined")
    guess = [0] * n
    correct = [0] * n
    total_testlen = 0
    total_reflen = 0.0
    for cand, refs in corpus.entries:
        testlen = len(cand)
        total_testlen += testlen
        total_reflen += min((abs(len(r) - testlen), len(r)) for r in refs)[1]
        max_ref: dict[tuple[str, ...], int] = {}
        for ref in refs:
            for ngram, count in _ngram_counts(ref, n).items():
                if count > max_ref.get(ngram, 0):
                    max_ref[ngram] = count
        for k in range(n):
            guess[k] += max(0, testlen - k)
        for ngram, count in _ngram_counts(cand, n).items():
            correct[len(ngram) - 1] += min(count, max_ref.get(ngram, 0))
    score = 1.0
    for k in range(n):
        score *= (correct[k] + _TINY) / (guess[k] + _SMALL)
    score **= 1.0 / n
    ratio = (total_testlen + _TINY) / (total_reflen + _SMALL)
    if ratio < 1.0:
        score *= math.exp(1.0 - 1.0 / ratio)
    return score


def _lcs(a: list[str], b: list[str]) -> int:
    table: dict[str, int] = {}
    for tok in a:
        if tok not in table:
            table[tok] = len(table)
    ia = np.array([table[t] for t in a], dtype=np.int64)
    ib = np.array([table.get(t, -1) for t in b], dtype=np.int64)
    return lcs_length_loop(ia, ib)


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
            lcs = _lcs(cand, ref)
            precisions.append(lcs / len(cand))
            recalls.append(lcs / len(ref))
        pm = max(precisions)
        rm = max(recalls)
        if pm != 0.0 and rm != 0.0:
            scores.append((1.0 + beta2) * pm * rm / (rm + beta2 * pm))
        else:
            scores.append(0.0)
    return float(np.mean(scores))


def _tfidf(counts: dict, df: dict, log_num_images: float):
    vec = [defaultdict(float) for _ in range(CIDER_N)]
    norm = [0.0] * CIDER_N
    length = 0
    for ngram, term_freq in counts.items():
        idf = log_num_images - math.log(max(1.0, df.get(ngram, 0.0)))
        k = len(ngram) - 1
        vec[k][ngram] = term_freq * idf
        norm[k] += vec[k][ngram] ** 2
        if k == 1:
            length += term_freq  # reference code measures length in bigrams
    return vec, [math.sqrt(x) for x in norm], length


def _cider_sim(vec_c, vec_r, norm_c, norm_r, len_c, len_r):
    delta = float(len_c - len_r)
    penalty = math.exp(-(delta**2) / (2.0 * CIDER_SIGMA**2))
    vals = np.zeros(CIDER_N)
    for k in range(CIDER_N):
        acc = 0.0
        for ngram, weight in vec_c[k].items():
            acc += min(weight, vec_r[k][ngram]) * vec_r[k][ngram]
        if norm_c[k] != 0.0 and norm_r[k] != 0.0:
            acc /= norm_c[k] * norm_r[k]
        vals[k] = acc * penalty
    return vals


def cider(corpus: EvaluationCorpus) -> float:
    """CIDEr-D consensus score (raw scale, roughly [0, 10])."""
    if len(corpus) < 2:
        raise DomainError(
            "CIDEr needs at least 2 images: its IDF is computed over the "
            "reference corpus with document = image"
        )
    df: dict[tuple[str, ...], float] = defaultdict(float)
    cooked = []
    for cand, refs in corpus.entries:
        ref_counts = [_ngram_counts(r, CIDER_N) for r in refs]
        cooked.append((_ngram_counts(cand, CIDER_N), ref_counts))
        seen = set()
        for rc in ref_counts:
            seen.update(rc.keys())
        for ngram in seen:
            df[ngram] += 1.0
    log_m = math.log(len(corpus))
    scores = []
    for cand_counts, ref_counts in cooked:
        vec_c, norm_c, len_c = _tfidf(cand_counts, df, log_m)
        acc = np.zeros(CIDER_N)
        for rc in ref_counts:
            vec_r, norm_r, len_r = _tfidf(rc, df, log_m)
            acc += _cider_sim(vec_c, vec_r, norm_c, norm_r, len_c, len_r)
        scores.append(float(np.mean(acc)) / len(ref_counts) * 10.0)
    return float(np.mean(scores))


def metric_table(corpus: EvaluationCorpus) -> dict[str, float]:
    """All metrics of a corpus, scaled by 100 for reporting."""
    return {
        "BLEU-1": 100.0 * bleu(corpus, 1),
        "BLEU-2": 100.0 * bleu(corpus, 2),
        "BLEU-3": 100.0 * bleu(corpus, 3),
        "BLEU-4": 100.0 * bleu(corpus, 4),
        "ROUGE-L": 100.0 * rouge_l(corpus),
        "CIDEr": 100.0 * cider(corpus),
    }
