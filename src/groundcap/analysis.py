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

Word vectors come from ``losses.label_embedding_matrix`` and cosines from
``kernels.pair_cosines_forward``, for homogeneity one matrix per class.

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

from . import kernels, numeric
from .autodiff import Tensor
from .data import ClassTable, ImageExample, Vocabulary, normalize, write_atomic
from .errors import DataValidationError, DegenerateStatisticsError, DomainError
from .losses import label_embedding_matrix
from .metrics import EvaluationCorpus, cider
from .model import ModelParams, greedy_decode, project_features

log = logging.getLogger(__name__)


@dataclass
class AlignedSpaces:
    """Word-space and object-space vectors indexed by one class list."""

    class_ids: list[int]
    word_vectors: np.ndarray  # (C, d_word)
    object_vectors: np.ndarray  # (C, d_obj)

    def __post_init__(self):
        if len(self.class_ids) != len(self.word_vectors) or len(self.class_ids) != len(
            self.object_vectors
        ):
            raise DataValidationError("aligned spaces must share one class list")


def class_centroids(
    vectors: np.ndarray, labels: np.ndarray, exclude: int | None = None
) -> dict[int, np.ndarray]:
    """Arithmetic mean of the vectors of each class."""
    vectors = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    keep = labels != exclude if exclude is not None else np.ones(len(labels), bool)
    out: dict[int, np.ndarray] = {}
    for c in np.unique(labels[keep]):
        out[int(c)] = vectors[labels == c].mean(axis=0)
    if not out:
        raise DomainError("no labeled vectors to build centroids from")
    return out


def _cosine_neighbors(matrix: np.ndarray, k: int) -> list[set[int]]:
    sims = kernels.pair_cosines_forward(matrix)
    np.fill_diagonal(sims, -np.inf)
    return [set(np.argsort(-row, kind="stable")[:k]) for row in sims]


def mean_neighbor_overlap(spaces: AlignedSpaces, k: int = 3) -> float:
    """Average share of common k-nearest classes between the two spaces."""
    n = len(spaces.class_ids)
    if k < 1 or k >= n:
        raise DomainError(f"neighbor count k={k} must satisfy 1 <= k < {n} classes")
    word_nn = _cosine_neighbors(spaces.word_vectors, k)
    obj_nn = _cosine_neighbors(spaces.object_vectors, k)
    return float(np.mean([len(w & o) / k for w, o in zip(word_nn, obj_nn)]))


def similarity_correlation(spaces: AlignedSpaces) -> float:
    """Pearson correlation of the two spaces' pairwise cosine lists."""
    n = len(spaces.class_ids)
    if n < 3:
        raise DomainError(f"similarity correlation needs >= 3 classes, got {n}")
    pairs = np.triu_indices(n, 1)
    obj_sims = kernels.pair_cosines_forward(spaces.object_vectors)[pairs]
    word_sims = kernels.pair_cosines_forward(spaces.word_vectors)[pairs]
    return numeric.pearson(obj_sims, word_sims)


def cluster_separation(vectors: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """(separation, homogeneity) on the 0..100 scale.

    Homogeneity uses globally mean-centered vectors; separation uses raw
    class centroids (see the module docstring for why). Classes with
    fewer than two vectors contribute nothing to homogeneity (skipped
    with a warning). All vectors identical - or any centered vector or
    centroid of zero norm - is degenerate.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    classes = np.unique(labels)
    if len(classes) < 2:
        raise DomainError(f"cluster separation needs >= 2 classes, got {len(classes)}")
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
    intra = 100.0 * max(0.0, float(np.mean(within)))

    centroids = [vectors[labels == c].mean(axis=0) for c in classes]
    return centroid_separation_score(centroids), intra


def centroid_separation_score(centroids: list[np.ndarray]) -> float:
    """100 x mean over unordered centroid pairs of (1 - cosine)/2.

    Endpoints: 0 for aligned centroids, 50 for mutually orthogonal ones,
    100 for antiparallel pairs.
    """
    if len(centroids) < 2:
        raise DomainError("separation needs >= 2 centroids")
    cos = kernels.pair_cosines_forward(np.stack(centroids))
    pair_vals = (1.0 - cos[np.triu_indices(len(centroids), 1)]) / 2.0
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


def collect_objects(
    examples: list[ImageExample], unk_id: int
) -> tuple[np.ndarray, np.ndarray]:
    """All non-UNK object vectors of a split with their labels."""
    feats, labels = [], []
    for ex in examples:
        for vec, label in zip(ex.features, ex.labels):
            if label != unk_id:
                feats.append(vec)
                labels.append(label)
    if not feats:
        raise DataValidationError("split has no labeled (non-UNK) objects")
    return np.stack(feats), np.asarray(labels, dtype=np.int64)


def decode_corpus(
    params: ModelParams,
    examples: list[ImageExample],
    vocab: Vocabulary,
    max_len: int,
) -> EvaluationCorpus:
    """Greedy-decode a split in one batched call, paired with its normalized
    references image by image."""
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
    max_len: int = 16,
) -> float:
    """Greedy-decode a split and score it, on the 0..100 report scale."""
    return 100.0 * cider(decode_corpus(params, examples, vocab, max_len))


def analyze(
    params: ModelParams,
    examples: list[ImageExample],
    class_table: ClassTable,
    vocab: Vocabulary,
    cider: float,
    neighbor_k: int = 3,
) -> tuple[AnalysisReport, list[ClassVectors]]:
    """Table-shaped structure report plus exportable per-class vectors.

    ``cider`` (the split's ``split_cider``) goes into the report as given.
    """
    vectors, labels = collect_objects(examples, class_table.unk_id)
    projected = project_features(vectors, params.arrays["input_proj"])
    orig_centroids = class_centroids(vectors, labels)
    proj_centroids = class_centroids(projected, labels)
    class_ids = sorted(orig_centroids)

    tokens = class_table.label_token_ids(vocab)
    embedding = Tensor(params.arrays["embedding"])
    word_vectors = label_embedding_matrix(embedding, class_ids, tokens)[0].data
    spaces_orig = AlignedSpaces(
        class_ids=class_ids,
        word_vectors=word_vectors,
        object_vectors=np.stack([orig_centroids[c] for c in class_ids]),
    )
    spaces_proj = AlignedSpaces(
        class_ids=class_ids,
        word_vectors=word_vectors,
        object_vectors=np.stack([proj_centroids[c] for c in class_ids]),
    )
    inter_orig, intra_orig = cluster_separation(vectors, labels)
    inter_proj, intra_proj = cluster_separation(projected, labels)

    report = AnalysisReport(
        cider=cider,
        neighbor_overlap={
            "original": 100.0 * mean_neighbor_overlap(spaces_orig, neighbor_k),
            "projected": 100.0 * mean_neighbor_overlap(spaces_proj, neighbor_k),
        },
        similarity_correlation={
            "original": 100.0 * similarity_correlation(spaces_orig),
            "projected": 100.0 * similarity_correlation(spaces_proj),
        },
        inter_cluster={"original": inter_orig, "projected": inter_proj},
        intra_cluster={"original": intra_orig, "projected": intra_proj},
        neighbor_k=neighbor_k,
        num_classes=len(class_ids),
    )
    exports = [
        ClassVectors(
            label=class_table.label(c),
            word_vector=word_vectors[i],
            centroid_original=orig_centroids[c],
            centroid_projected=proj_centroids[c],
        )
        for i, c in enumerate(class_ids)
    ]
    return report, exports


def write_vector_export(exports: list[ClassVectors], path: Path) -> None:
    lines = [
        json.dumps(
            {
                "label": cv.label,
                "word_vector": [float(x) for x in cv.word_vector],
                "centroid_original": [float(x) for x in cv.centroid_original],
                "centroid_projected": [float(x) for x in cv.centroid_projected],
            },
            sort_keys=True,
        )
        + "\n"
        for cv in exports
    ]
    write_atomic(path, "".join(lines))
