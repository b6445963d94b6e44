"""Embedding-space structure analysis of the learned projection.

For every class present in a split this compares three vector spaces: the
class's word embedding (mean of its label tokens' embedding columns), the
centroid of its original object features, and the centroid of its
projected features.

Metrics, all reported on the 0..100 table scale:

* mean neighbor overlap — average fraction of shared k-nearest-neighbor
  classes (by cosine) between the word space and an object-centroid space.
* similarity correlation — Pearson correlation between the two spaces'
  pairwise-cosine lists over all unordered class pairs.
* cluster homogeneity — mean within-class pairwise cosine (clamped at 0)
  of the globally mean-centered vectors, times 100. Centering is what
  makes cosines informative for non-negative feature spaces.
* cluster separation — mean over unordered class-centroid pairs of
  (1 - cos)/2, times 100, on the *uncentered* centroids. Centering is
  deliberately not applied here: centered class centroids always sum to
  zero (count-weighted), which pins their mean pairwise cosine near
  -1/(C-1) and would freeze the score around 55 for balanced classes no
  matter what training does.

``analyze`` computes each thing once: the class ids and each object space's
(C, d) centroid matrix in one ``class_centroids`` call per space, the word
vectors from ``losses.label_embedding_matrix``, and one (C, C) cosine
matrix (``kernels.pair_cosines_forward``) of the word vectors and of each
space's centroids. Overlap, correlation and separation read those matrices;
homogeneity takes one matrix per class of the centered vectors. That is
3 + 2C kernel calls when every class has at least two vectors.

Raw centroid and embedding vectors are exported to JSON lines so the
spaces can be visualized externally.

``decode_corpus`` is the one decode path: ``split_cider`` and
``training.evaluate`` both score its corpus. ``analyze`` does not decode;
its caller passes in the split's CIDEr.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import orjson

from . import kernels
from .autodiff import Tensor
from .data import ClassTable, ImageExample, Vocabulary, float_array_json, normalize, write_atomic
from .errors import ConfigError, DataValidationError, DegenerateStatisticsError, DomainError
from .losses import label_embedding_matrix
from .metrics import EvaluationCorpus, cider
from .model import ModelParams, greedy_decode, project_features

log = logging.getLogger(__name__)


def class_centroids(vectors: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted class ids (C,) and the arithmetic mean of each class's vectors (C, d)."""
    vectors = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    classes = np.unique(labels)
    if not len(classes):
        raise DomainError("no labeled vectors to build centroids from")
    return classes, np.stack([vectors[labels == c].mean(axis=0) for c in classes])


DEFAULT_NEIGHBOR_K = 3


def check_neighbor_k(k: int, n: int) -> None:
    if k < 1 or k >= n:
        raise DomainError(f"neighbor count k={k} must satisfy 1 <= k < {n} classes")


def mean_neighbor_overlap(word_cos: np.ndarray, object_cos: np.ndarray, k: int) -> float:
    """Average share of common k-nearest classes between two spaces, from
    their (C, C) cosine matrices."""
    check_neighbor_k(k, len(word_cos))
    self_pairs = np.eye(len(word_cos), dtype=bool)
    word_nn, obj_nn = (
        np.argsort(np.where(self_pairs, np.inf, -cos), axis=1, kind="stable")[:, :k]
        for cos in (word_cos, object_cos)
    )
    return float(np.mean([len(set(w) & set(o)) / k for w, o in zip(word_nn, obj_nn)]))


def similarity_correlation(word_cos: np.ndarray, object_cos: np.ndarray) -> float:
    """Pearson correlation of two spaces' cosine matrices over the unordered
    class pairs."""
    n = len(word_cos)
    _check_correlatable(n)
    pairs = np.triu_indices(n, 1)
    return kernels.pearson(object_cos[pairs], word_cos[pairs])


def cluster_homogeneity(vectors: np.ndarray, labels: np.ndarray, classes: np.ndarray) -> float:
    """Mean within-class pairwise cosine of the globally mean-centered vectors,
    clamped at 0, on the 0..100 scale. Classes of one vector are skipped with
    a warning; a centered vector of zero norm (all inputs equal) is degenerate."""
    centered = vectors - vectors.mean(axis=0)
    if (np.linalg.norm(centered, axis=1) == 0.0).any():
        raise DegenerateStatisticsError(
            "zero-norm vector after global centering (identical inputs?)"
        )
    within = []
    for c in classes:
        rows = centered[labels == c]
        m = len(rows)
        if m < 2:
            log.warning("class %d has %d vector(s); skipped for homogeneity", c, m)
            continue
        within.append((kernels.pair_cosines_forward(rows).sum() - m) / (m * (m - 1)))
    if not within:
        raise DomainError("no class has >= 2 vectors; homogeneity undefined")
    return 100.0 * max(0.0, float(np.mean(within)))


def cluster_separation(centroid_cos: np.ndarray) -> float:
    """100 x mean over unordered centroid pairs of (1 - cosine)/2, from the
    (C, C) cosine matrix of the raw class centroids (C >= 2).

    Endpoints: 0 for aligned centroids, 50 for mutually orthogonal ones,
    100 for antiparallel pairs.
    """
    pair_vals = (1.0 - centroid_cos[np.triu_indices(len(centroid_cos), 1)]) / 2.0
    return 100.0 * float(np.mean(pair_vals))


@dataclass
class AnalysisReport:
    """Structure metrics for the original and the projected object space."""

    cider: float
    neighbor_overlap: dict[str, float]  # {"original": .., "projected": ..}
    similarity_correlation: dict[str, float]
    inter_cluster: dict[str, float]
    intra_cluster: dict[str, float]
    neighbor_k: int
    num_classes: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        try:
            return cls(**orjson.loads(text))
        except (TypeError, ValueError) as err:
            raise DataValidationError(f"malformed analysis report: {err}") from err


@dataclass
class ClassVectors:
    label: str
    word_vector: np.ndarray
    centroid_original: np.ndarray
    centroid_projected: np.ndarray


def collect_objects(examples: list[ImageExample], unk_id: int) -> tuple[np.ndarray, np.ndarray]:
    """All non-UNK object vectors of a split with their labels."""
    labels = np.concatenate([ex.labels for ex in examples] or [np.zeros(0, dtype=np.int64)])
    keep = labels != unk_id
    if not keep.any():
        raise DataValidationError("split has no labeled (non-UNK) objects")
    return np.concatenate([ex.features for ex in examples])[keep], labels[keep]


def _check_scorable(examples: list[ImageExample]) -> None:
    if len(examples) < 2:
        raise DataValidationError(
            f"scoring a split needs at least 2 images for CIDEr, got {len(examples)}"
        )


def _check_separable(n_classes: int) -> None:
    if n_classes < 2:
        raise DomainError(f"cluster separation needs >= 2 classes, got {n_classes}")


def _check_correlatable(n_classes: int) -> None:
    if n_classes < 3:
        raise DomainError(f"similarity correlation needs >= 3 classes, got {n_classes}")


def check_neighbor_k_option(k: int, examples: list[ImageExample], unk_id: int) -> None:
    """``check_neighbor_k`` against the labelled classes of a split, for a
    command to run before it decodes or trains. The split's own faults that
    ``split_cider`` and ``analyze`` would raise first still come first; a bad
    k is then the option's fault, a ConfigError, where ``analyze`` itself
    raises DomainError. Last come the 3 classes that the similarity
    correlation needs, with ``analyze``'s DomainError."""
    _check_scorable(examples)
    n_classes = len(np.unique(collect_objects(examples, unk_id)[1]))
    _check_separable(n_classes)
    try:
        check_neighbor_k(k, n_classes)
    except DomainError as err:
        raise ConfigError(str(err)) from err
    _check_correlatable(n_classes)


def decode_corpus(
    params: ModelParams,
    examples: list[ImageExample],
    vocab: Vocabulary,
    max_len: int,
) -> EvaluationCorpus:
    """Greedy-decode a split in one batched call, paired with its normalized
    references image by image. Every caller scores the corpus with CIDEr,
    so a split of fewer than 2 images is a DataValidationError."""
    _check_scorable(examples)
    references = []
    for ex in examples:
        refs = [r for r in (normalize(c) for c in ex.captions) if r]
        if not refs:
            raise DataValidationError(f"image {ex.image_id} has no usable references")
        references.append(refs)
    zs = [project_features(ex.features, params.arrays["input_proj"]) for ex in examples]
    captions = greedy_decode(zs, params, max_len)
    return EvaluationCorpus(
        entries=[
            ([vocab.id_to_token(i) for i in ids], refs)
            for ids, refs in zip(captions, references)
        ]
    )


def split_cider(
    params: ModelParams,
    examples: list[ImageExample],
    vocab: Vocabulary,
    max_len: int,
) -> float:
    """Greedy-decode a split and score it, on the 0..100 report scale."""
    return 100.0 * cider(decode_corpus(params, examples, vocab, max_len))


def analyze(
    params: ModelParams,
    examples: list[ImageExample],
    class_table: ClassTable,
    vocab: Vocabulary,
    cider: float,
    neighbor_k: int = DEFAULT_NEIGHBOR_K,
) -> tuple[AnalysisReport, list[ClassVectors]]:
    """Table-shaped structure report plus exportable per-class vectors.

    ``cider`` (the split's ``split_cider``) goes into the report as given.
    Checks run in this order: 2 classes; the original space's homogeneity
    and nonzero centroids, then the projected one's; k; nonzero word
    vectors; the correlation's 3 classes and variance.
    """
    vectors, labels = collect_objects(examples, class_table.unk_id)
    projected = project_features(vectors, params.arrays["input_proj"])
    classes, orig_centroids = class_centroids(vectors, labels)
    _, proj_centroids = class_centroids(projected, labels)
    tokens = class_table.label_token_ids(vocab)
    word_vectors = label_embedding_matrix(Tensor(params.arrays["embedding"]), classes, tokens)[0].data
    _check_separable(len(classes))
    spaces = {"original": (vectors, orig_centroids), "projected": (projected, proj_centroids)}
    intra, centroid_cos = {}, {}
    for space, (space_vectors, centroids) in spaces.items():
        intra[space] = cluster_homogeneity(space_vectors, labels, classes)
        centroid_cos[space] = kernels.pair_cosines_forward(centroids)
    check_neighbor_k(neighbor_k, len(classes))
    word_cos = kernels.pair_cosines_forward(word_vectors)
    overlap, correlation = {}, {}
    for space, cos in centroid_cos.items():  # an overlap cannot fail once k is checked
        overlap[space] = 100.0 * mean_neighbor_overlap(word_cos, cos, neighbor_k)
        correlation[space] = 100.0 * similarity_correlation(word_cos, cos)

    report = AnalysisReport(
        cider=cider,
        neighbor_overlap=overlap,
        similarity_correlation=correlation,
        inter_cluster={space: cluster_separation(cos) for space, cos in centroid_cos.items()},
        intra_cluster=intra,
        neighbor_k=neighbor_k,
        num_classes=len(classes),
    )
    exports = [
        ClassVectors(class_table.label(c), *rows)
        for c, *rows in zip(classes.tolist(), word_vectors, orig_centroids, proj_centroids)
    ]
    return report, exports


def write_vector_export(exports: list[ClassVectors], path: Path) -> None:
    """One line per class, ``json.dumps`` of its label and three vectors with
    sorted keys; the vectors go through ``float_array_json``."""
    lines = [
        b"".join((
            b'{"centroid_original": ', float_array_json(cv.centroid_original),
            b', "centroid_projected": ', float_array_json(cv.centroid_projected),
            b', "label": ', json.dumps(cv.label).encode(),
            b', "word_vector": ', float_array_json(cv.word_vector),
            b"}\n",
        ))
        for cv in exports
    ]
    write_atomic(path, b"".join(lines))
