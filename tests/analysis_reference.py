"""The structure analysis as it was before each space's centroids and
cosine matrices were computed once: the oracle for ``groundcap.analysis``.

``analyze`` here builds every class centroid twice and calls
``kernels.pair_cosines_forward`` 10 + 2C times for C classes (four times on
the word vectors, three times on each centroid matrix). ``groundcap.
analysis.analyze`` must write the same report and exports bit for bit, and
raise the same exception, with the same message, as the first check that
fails here, after the same warnings.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from groundcap import kernels
from groundcap.analysis import AnalysisReport, ClassVectors, collect_objects
from groundcap.autodiff import Tensor
from groundcap.data import ClassTable, ImageExample, Vocabulary
from groundcap.errors import DataValidationError, DegenerateStatisticsError, DomainError
from groundcap.losses import label_embedding_matrix
from groundcap.model import ModelParams, project_features

log = logging.getLogger("groundcap.analysis")


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


def class_centroids(vectors: np.ndarray, labels: np.ndarray) -> dict[int, np.ndarray]:
    """Arithmetic mean of the vectors of each class."""
    vectors = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    out = {int(c): vectors[labels == c].mean(axis=0) for c in np.unique(labels)}
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
    return kernels.pearson(obj_sims, word_sims)


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
