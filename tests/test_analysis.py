"""Structure analysis: centroids, neighbor overlap, correlations, separation."""

import json
from pathlib import Path

import numpy as np
import pytest

import loop_reference
from groundcap import numeric
from groundcap.analysis import (
    AlignedSpaces,
    AnalysisReport,
    analyze,
    centroid_separation_score,
    class_centroids,
    cluster_separation,
    collect_objects,
    mean_neighbor_overlap,
    similarity_correlation,
    write_vector_export,
)
from groundcap.data import SyntheticSpec, build_vocabulary, generate_synthetic_dataset
from groundcap.errors import (
    DataValidationError,
    DegenerateStatisticsError,
    DomainError,
)
from groundcap.model import ModelConfig, ModelParams

FIXTURE = Path(__file__).parent / "fixtures" / "structure_reference.json"


def random_rotation(dim, rng):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q


class TestClassCentroids:
    def test_singleton_class(self):
        v = np.array([[1.0, 2.0], [5.0, 6.0]])
        cents = class_centroids(v, np.array([3, 8]))
        np.testing.assert_array_equal(cents[3], v[0])
        np.testing.assert_array_equal(cents[8], v[1])

    def test_midpoint(self):
        v = np.array([[0.0, 0.0], [2.0, 2.0]])
        cents = class_centroids(v, np.array([1, 1]))
        np.testing.assert_array_equal(cents[1], [1.0, 1.0])

    def test_noisy_prototype_recovery(self, rng):
        proto = rng.normal(size=8)
        proto /= np.linalg.norm(proto)
        samples = proto + 0.1 * rng.normal(size=(100, 8))
        cents = class_centroids(samples, np.zeros(100, dtype=int))
        assert loop_reference.cosine(cents[0], proto) >= 0.99

    def test_unk_exclusion_and_empty_error(self):
        v = np.eye(3)
        cents = class_centroids(v, np.array([0, 0, 9]), exclude=9)
        assert set(cents) == {0}
        with pytest.raises(DomainError):
            class_centroids(v, np.array([9, 9, 9]), exclude=9)


class TestMeanNeighborOverlap:
    def test_positive_scaling_gives_one(self, rng):
        words = rng.normal(size=(6, 4))
        spaces = AlignedSpaces(list(range(6)), words, 2.5 * words)
        assert mean_neighbor_overlap(spaces, k=2) == 1.0

    def test_orthogonal_rotation_gives_one(self, rng):
        words = rng.normal(size=(7, 5))
        rot = random_rotation(5, rng)
        spaces = AlignedSpaces(list(range(7)), words, words @ rot)
        assert mean_neighbor_overlap(spaces, k=3) == 1.0

    def test_fully_disjoint_k1_gives_zero(self):
        # word space: neighbors by angle; object space pairs them differently
        words = np.array([[1.0, 0.0], [1.0, 0.05], [-1.0, 0.0], [-1.0, 0.05]])
        objects = np.array([[1.0, 0.0], [-1.0, 0.05], [1.0, 0.05], [-1.0, 0.0]])
        spaces = AlignedSpaces([0, 1, 2, 3], words, objects)
        assert mean_neighbor_overlap(spaces, k=1) == 0.0

    def test_hand_enumerated_fixture(self):
        # four classes in 2D at angles 0, 10, 50, 60 degrees (word space)
        # object space at angles 0, 50, 10, 180 for classes 0..3
        def ring(degs):
            r = np.deg2rad(degs)
            return np.stack([np.cos(r), np.sin(r)], axis=1)

        words = ring([0.0, 10.0, 50.0, 60.0])
        objects = ring([0.0, 50.0, 10.0, 180.0])
        spaces = AlignedSpaces([0, 1, 2, 3], words, objects)
        # word 2-NN:  0:{1,2} 1:{0,2} 2:{3,1} 3:{2,1}
        # object 2-NN: 0:{2,1} 1:{2,0} 2:{0,1} 3:{1,2}
        # overlaps: {1,2}, {0,2}, {1}, {1,2} -> (2 + 2 + 1 + 2) / (4*2)
        expected = (2 + 2 + 1 + 2) / 8
        assert mean_neighbor_overlap(spaces, k=2) == pytest.approx(expected)

    def test_k_bounds(self, rng):
        words = rng.normal(size=(4, 3))
        spaces = AlignedSpaces(list(range(4)), words, words)
        with pytest.raises(DomainError):
            mean_neighbor_overlap(spaces, k=4)
        with pytest.raises(DomainError):
            mean_neighbor_overlap(spaces, k=0)


class TestSimilarityCorrelation:
    def test_identical_spaces_give_one(self, rng):
        words = rng.normal(size=(5, 4))
        spaces = AlignedSpaces(list(range(5)), words, words.copy())
        assert similarity_correlation(spaces) == pytest.approx(1.0, abs=1e-12)

    def test_anti_linear_fixture_gives_minus_one(self):
        # build object vectors whose pairwise cosines are an offset negation
        # of the word-space cosines, via a Cholesky factor of the target Gram
        words = np.stack(
            [np.array([1.0, 0.0]), np.array([np.cos(1.0), np.sin(1.0)]),
             np.array([np.cos(1.4), np.sin(1.4)])]
        )
        w_sims = [
            loop_reference.cosine(words[i], words[j]) for i, j in [(0, 1), (0, 2), (1, 2)]
        ]
        target = np.eye(3)
        offset = 0.3
        target[0, 1] = target[1, 0] = offset - w_sims[0]
        target[0, 2] = target[2, 0] = offset - w_sims[1]
        target[1, 2] = target[2, 1] = offset - w_sims[2]
        objects = np.linalg.cholesky(target)  # rows are unit vectors w/ that Gram
        spaces = AlignedSpaces([0, 1, 2], words, objects)
        assert similarity_correlation(spaces) == pytest.approx(-1.0, abs=1e-10)

    def test_hand_pearson_on_2d_fixture(self):
        def ring(degs):
            r = np.deg2rad(degs)
            return np.stack([np.cos(r), np.sin(r)], axis=1)

        words = ring([0.0, 20.0, 90.0, 140.0])
        objects = ring([5.0, 40.0, 80.0, 170.0])
        spaces = AlignedSpaces([0, 1, 2, 3], words, objects)
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        w = [loop_reference.cosine(words[i], words[j]) for i, j in pairs]
        o = [loop_reference.cosine(objects[i], objects[j]) for i, j in pairs]
        assert similarity_correlation(spaces) == pytest.approx(
            numeric.pearson(o, w), abs=1e-12
        )

    def test_orthogonal_rotation_invariance(self, rng):
        words = rng.normal(size=(6, 5))
        objects = rng.normal(size=(6, 5))
        base = similarity_correlation(AlignedSpaces(list(range(6)), words, objects))
        rot_w = random_rotation(5, rng)
        rot_o = random_rotation(5, rng)
        rotated = similarity_correlation(
            AlignedSpaces(list(range(6)), words @ rot_w, objects @ rot_o)
        )
        assert rotated == pytest.approx(base, abs=1e-10)

    def test_needs_three_classes(self, rng):
        words = rng.normal(size=(2, 3))
        with pytest.raises(DomainError):
            similarity_correlation(AlignedSpaces([0, 1], words, words))


class TestClusterSeparation:
    def test_identical_vector_classes_max_homogeneity(self):
        a = np.array([2.0, 0.0, 1.0])
        b = np.array([0.0, 3.0, -1.0])
        vectors = np.stack([a, a, b, b])
        inter, intra = cluster_separation(vectors, np.array([0, 0, 1, 1]))
        assert intra == pytest.approx(100.0, abs=1e-9)
        # raw centroids are a and b themselves
        assert inter == pytest.approx(100.0 * (1 - loop_reference.cosine(a, b)) / 2, abs=1e-9)

    def test_endpoints_identical_classes_orthogonal_centroids(self):
        # three point-classes on orthogonal axes: homogeneity at its maximum,
        # separation exactly 50
        vectors = np.repeat(np.eye(3), 2, axis=0)
        labels = np.array([0, 0, 1, 1, 2, 2])
        inter, intra = cluster_separation(vectors, labels)
        assert intra == pytest.approx(100.0, abs=1e-9)
        assert inter == pytest.approx(50.0, abs=1e-9)

    def test_separation_formula_endpoints(self):
        orthogonal = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert centroid_separation_score(orthogonal) == pytest.approx(50.0)
        aligned = [np.array([1.0, 0.0]), np.array([2.0, 0.0])]
        assert centroid_separation_score(aligned) == pytest.approx(0.0)
        antiparallel = [np.array([1.0, 0.0]), np.array([-3.0, 0.0])]
        assert centroid_separation_score(antiparallel) == pytest.approx(100.0)

    def test_zero_norm_vector_is_domain_error(self, rng):
        words = rng.normal(size=(4, 3))
        objects = words.copy()
        objects[2] = 0.0
        spaces = AlignedSpaces(list(range(4)), words, objects)
        for score in (
            lambda: mean_neighbor_overlap(spaces, k=1),
            lambda: similarity_correlation(spaces),
            lambda: centroid_separation_score(list(objects)),
        ):
            with pytest.raises(DomainError):
                score()

    def test_all_identical_vectors_degenerate(self):
        vectors = np.tile(np.array([1.0, 2.0]), (4, 1))
        with pytest.raises(DegenerateStatisticsError):
            cluster_separation(vectors, np.array([0, 0, 1, 1]))

    def test_small_class_skipped_with_warning(self, rng, caplog):
        vectors = rng.normal(size=(5, 3))
        labels = np.array([0, 0, 0, 0, 1])
        with caplog.at_level("WARNING"):
            inter, intra = cluster_separation(vectors, labels)
        assert "skipped" in caplog.text
        assert np.isfinite(inter) and np.isfinite(intra)

    def test_duplicating_every_vector_never_decreases_homogeneity(self, rng):
        for trial in range(5):
            vectors = rng.normal(size=(10, 4))
            labels = rng.integers(0, 3, size=10)
            if min(np.bincount(labels, minlength=3)) < 2:
                continue
            _, intra = cluster_separation(vectors, labels)
            doubled = np.concatenate([vectors, vectors])
            _, intra2 = cluster_separation(doubled, np.concatenate([labels, labels]))
            assert intra2 >= intra - 1e-12

    def test_matches_independent_script_fixture(self):
        payload = json.loads(FIXTURE.read_text())
        spec = SyntheticSpec(
            num_classes=payload["spec"]["num_classes"],
            spread=payload["spec"]["spread"],
            images=payload["spec"]["images"],
            feature_size=payload["spec"]["feature_size"],
        )
        ds = generate_synthetic_dataset(spec, seed=payload["seed"])
        everything = ds.train + ds.val + ds.test
        vectors, labels = collect_objects(everything, ds.class_table.unk_id)
        assert len(vectors) == payload["num_vectors"]
        inter, intra = cluster_separation(vectors, labels)
        assert inter == pytest.approx(payload["inter_cluster"], abs=1e-9)
        assert intra == pytest.approx(payload["intra_cluster"], abs=1e-9)

    def test_zero_spread_maximizes_homogeneity(self):
        ds = generate_synthetic_dataset(
            SyntheticSpec(num_classes=4, spread=0.0, images=30, feature_size=16), seed=1
        )
        vectors, labels = collect_objects(ds.train, ds.class_table.unk_id)
        _, intra = cluster_separation(vectors, labels)
        assert intra == pytest.approx(100.0, abs=1e-9)


class TestAnalyze:
    @pytest.fixture
    def setup(self):
        ds = generate_synthetic_dataset(
            SyntheticSpec(num_classes=5, spread=0.2, images=40, feature_size=24), seed=9
        )
        captions = [c for ex in ds.train for c in ex.captions]
        vocab = build_vocabulary(captions, min_count=1)
        cfg = ModelConfig(vocab_size=vocab.size, feature_size=24, hidden_size=24)
        params = ModelParams.init(cfg, np.random.default_rng(0))
        return ds, vocab, params

    def test_identity_projection_equalizes_columns(self, setup):
        ds, vocab, params = setup
        params.arrays["input_proj"] = np.eye(24)
        report, _ = analyze(params, ds.test, ds.class_table, vocab, cider=12.5, neighbor_k=2)
        assert report.neighbor_overlap["original"] == report.neighbor_overlap["projected"]
        assert report.similarity_correlation["original"] == pytest.approx(
            report.similarity_correlation["projected"], abs=1e-9
        )
        assert report.inter_cluster["original"] == pytest.approx(
            report.inter_cluster["projected"], abs=1e-9
        )
        assert report.intra_cluster["original"] == pytest.approx(
            report.intra_cluster["projected"], abs=1e-9
        )

    def test_report_roundtrips_through_json(self, setup):
        ds, vocab, params = setup
        report, _ = analyze(params, ds.test, ds.class_table, vocab, cider=12.5, neighbor_k=2)
        again = AnalysisReport.from_json(report.to_json())
        assert again == report
        assert again.cider == 12.5  # carried as given, not decoded

    def test_deterministic(self, setup):
        ds, vocab, params = setup
        r1, _ = analyze(params, ds.test, ds.class_table, vocab, cider=12.5, neighbor_k=2)
        r2, _ = analyze(params, ds.test, ds.class_table, vocab, cider=12.5, neighbor_k=2)
        assert r1 == r2

    def test_vector_export_schema(self, setup, tmp_path):
        ds, vocab, params = setup
        _, exports = analyze(params, ds.test, ds.class_table, vocab, cider=12.5, neighbor_k=2)
        path = tmp_path / "vectors.jsonl"
        write_vector_export(exports, path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == len(exports)
        for rec in lines:
            assert set(rec) == {"label", "word_vector", "centroid_original", "centroid_projected"}
            assert len(rec["centroid_projected"]) == 24

    def test_missing_labels_is_validation_error(self, setup):
        ds, vocab, params = setup
        for ex in ds.test:
            ex.labels = [ds.class_table.unk_id] * len(ex.labels)
        with pytest.raises(DataValidationError):
            analyze(params, ds.test, ds.class_table, vocab, cider=12.5)

    def test_malformed_report_json(self):
        with pytest.raises(DataValidationError):
            AnalysisReport.from_json('{"cider": 1.0}')
        with pytest.raises(DataValidationError):
            AnalysisReport.from_json('{"cider": 1.0')
