"""Structure analysis: centroids, neighbor overlap, correlations, separation."""

import json
import logging
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import analysis_reference
import loop_reference
from groundcap import kernels
from groundcap.analysis import (
    AnalysisReport,
    ClassVectors,
    analyze,
    class_centroids,
    cluster_homogeneity,
    cluster_separation,
    collect_objects,
    mean_neighbor_overlap,
    similarity_correlation,
    write_vector_export,
)
from groundcap.data import (
    LABEL_POOL,
    ClassTable,
    ImageExample,
    SyntheticSpec,
    build_vocabulary,
    generate_synthetic_dataset,
)
from groundcap.errors import (
    DataValidationError,
    DegenerateStatisticsError,
    DomainError,
)
from groundcap.model import ModelConfig, ModelParams

FIXTURE = Path(__file__).parent / "fixtures" / "structure_reference.json"


cos = kernels.pair_cosines_forward


def random_rotation(dim, rng):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q


def structure(vectors, labels):
    """(separation, homogeneity) of one space, as ``analyze`` computes them."""
    vectors = np.asarray(vectors, dtype=np.float64)
    classes, centroids = class_centroids(vectors, labels)
    return cluster_separation(cos(centroids)), cluster_homogeneity(vectors, labels, classes)


def analysis_inputs(
    counts, seed=0, width=6, identity=False, zero_centroid=None, identical=False, signs=False
):
    """A split whose class i (named ``LABEL_POOL[i]``) has ``counts[i]``
    objects, shuffled among two UNK objects into images of up to 3, with its
    class table, vocabulary and an untrained model of feature width
    ``width``. ``zero_centroid`` names a class whose vectors alternate
    between +0.5 and -0.5 in every entry (a last odd one is 0), so its
    centroid is exactly 0; ``identical`` makes every vector the same, and
    ``signs`` every entry +1 or -1, so that cosines tie."""
    rng = np.random.default_rng(seed)
    num = len(counts)
    table = ClassTable({**dict(enumerate(LABEL_POOL[:num])), num: "UNK"})
    vocab = build_vocabulary([" ".join(["a", *LABEL_POOL[:num]])], min_count=1)
    labels = np.concatenate([np.repeat(np.arange(num), counts), [num, num]])
    rng.shuffle(labels)
    features = rng.normal(size=(len(labels), width))
    if signs:
        features = np.sign(features)
    if zero_centroid is not None:
        rows = np.flatnonzero(labels == zero_centroid)
        features[rows] = 0.5 * (-1.0) ** np.arange(len(rows))[:, None]
        if len(rows) % 2:
            features[rows[-1]] = 0.0
    if identical:
        features[:] = 1.0
    boxes = np.tile([0.0, 0.0, 1.0, 1.0], (len(labels), 1))
    examples = [
        ImageExample(f"img{i}", features[i : i + 3], boxes[i : i + 3], labels[i : i + 3], ["a"])
        for i in range(0, len(labels), 3)
    ]
    params = ModelParams.init(
        ModelConfig(vocab_size=vocab.size, feature_size=width, hidden_size=width), rng
    )
    if identity:
        params.arrays["input_proj"] = np.eye(width)
    return examples, table, vocab, params


def hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hexed(v) for key, v in value.items()}
    return value


def outcome(analyze_fn, inputs, neighbor_k):
    """The report and exports of one analysis with every float as
    ``float.hex`` (or the type and message of what it raises), and the
    warnings it logs, in order."""
    examples, table, vocab, params = inputs
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("groundcap.analysis")
    logger.addHandler(handler)
    try:
        report, exports = analyze_fn(params, examples, table, vocab, 12.5, neighbor_k)
        result = (
            report.to_json(),
            hexed(asdict(report)),
            [
                (cv.label, *([float(x).hex() for x in row] for row in (
                    cv.word_vector, cv.centroid_original, cv.centroid_projected)))
                for cv in exports
            ],
        )
    except Exception as err:  # what it raises is part of the outcome
        result = (type(err), str(err))
    finally:
        logger.removeHandler(handler)
    return result, [(r.levelname, r.getMessage()) for r in records]


class TestClassCentroids:
    def test_singleton_class(self):
        v = np.array([[1.0, 2.0], [5.0, 6.0]])
        classes, cents = class_centroids(v, np.array([8, 3]))
        np.testing.assert_array_equal(classes, [3, 8])
        np.testing.assert_array_equal(cents[0], v[1])
        np.testing.assert_array_equal(cents[1], v[0])

    def test_midpoint(self):
        v = np.array([[0.0, 0.0], [2.0, 2.0]])
        classes, cents = class_centroids(v, np.array([1, 1]))
        np.testing.assert_array_equal(classes, [1])
        np.testing.assert_array_equal(cents, [[1.0, 1.0]])

    def test_noisy_prototype_recovery(self, rng):
        proto = rng.normal(size=8)
        proto /= np.linalg.norm(proto)
        samples = proto + 0.1 * rng.normal(size=(100, 8))
        _, cents = class_centroids(samples, np.zeros(100, dtype=int))
        assert loop_reference.cosine(cents[0], proto) >= 0.99

    def test_empty_labels_error(self):
        with pytest.raises(DomainError, match="no labeled vectors"):
            class_centroids(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


class TestMeanNeighborOverlap:
    def test_positive_scaling_gives_one(self, rng):
        words = rng.normal(size=(6, 4))
        assert mean_neighbor_overlap(cos(words), cos(2.5 * words), k=2) == 1.0

    def test_orthogonal_rotation_gives_one(self, rng):
        words = rng.normal(size=(7, 5))
        rot = random_rotation(5, rng)
        assert mean_neighbor_overlap(cos(words), cos(words @ rot), k=3) == 1.0

    def test_fully_disjoint_k1_gives_zero(self):
        # word space: neighbors by angle; object space pairs them differently
        words = np.array([[1.0, 0.0], [1.0, 0.05], [-1.0, 0.0], [-1.0, 0.05]])
        objects = np.array([[1.0, 0.0], [-1.0, 0.05], [1.0, 0.05], [-1.0, 0.0]])
        assert mean_neighbor_overlap(cos(words), cos(objects), k=1) == 0.0

    def test_hand_enumerated_fixture(self):
        # four classes in 2D at angles 0, 10, 50, 60 degrees (word space)
        # object space at angles 0, 50, 10, 180 for classes 0..3
        def ring(degs):
            r = np.deg2rad(degs)
            return np.stack([np.cos(r), np.sin(r)], axis=1)

        words = ring([0.0, 10.0, 50.0, 60.0])
        objects = ring([0.0, 50.0, 10.0, 180.0])
        # word 2-NN:  0:{1,2} 1:{0,2} 2:{3,1} 3:{2,1}
        # object 2-NN: 0:{2,1} 1:{2,0} 2:{0,1} 3:{1,2}
        # overlaps: {1,2}, {0,2}, {1}, {1,2} -> (2 + 2 + 1 + 2) / (4*2)
        expected = (2 + 2 + 1 + 2) / 8
        assert mean_neighbor_overlap(cos(words), cos(objects), k=2) == pytest.approx(expected)

    def test_k_bounds(self, rng):
        sims = cos(rng.normal(size=(4, 3)))
        with pytest.raises(DomainError):
            mean_neighbor_overlap(sims, sims, k=4)
        with pytest.raises(DomainError):
            mean_neighbor_overlap(sims, sims, k=0)


class TestSimilarityCorrelation:
    def test_identical_spaces_give_one(self, rng):
        words = rng.normal(size=(5, 4))
        assert similarity_correlation(cos(words), cos(words.copy())) == pytest.approx(
            1.0, abs=1e-12
        )

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
        assert similarity_correlation(cos(words), cos(objects)) == pytest.approx(-1.0, abs=1e-10)

    def test_hand_pearson_on_2d_fixture(self):
        def ring(degs):
            r = np.deg2rad(degs)
            return np.stack([np.cos(r), np.sin(r)], axis=1)

        words = ring([0.0, 20.0, 90.0, 140.0])
        objects = ring([5.0, 40.0, 80.0, 170.0])
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        w = [loop_reference.cosine(words[i], words[j]) for i, j in pairs]
        o = [loop_reference.cosine(objects[i], objects[j]) for i, j in pairs]
        assert similarity_correlation(cos(words), cos(objects)) == pytest.approx(
            kernels.pearson(o, w), abs=1e-12
        )

    def test_orthogonal_rotation_invariance(self, rng):
        words = rng.normal(size=(6, 5))
        objects = rng.normal(size=(6, 5))
        base = similarity_correlation(cos(words), cos(objects))
        rot_w = random_rotation(5, rng)
        rot_o = random_rotation(5, rng)
        rotated = similarity_correlation(cos(words @ rot_w), cos(objects @ rot_o))
        assert rotated == pytest.approx(base, abs=1e-10)

    def test_needs_three_classes(self, rng):
        sims = cos(rng.normal(size=(2, 3)))
        with pytest.raises(DomainError):
            similarity_correlation(sims, sims)


class TestClusterSeparation:
    def test_identical_vector_classes_max_homogeneity(self):
        a = np.array([2.0, 0.0, 1.0])
        b = np.array([0.0, 3.0, -1.0])
        vectors = np.stack([a, a, b, b])
        inter, intra = structure(vectors, np.array([0, 0, 1, 1]))
        assert intra == pytest.approx(100.0, abs=1e-9)
        # raw centroids are a and b themselves
        assert inter == pytest.approx(100.0 * (1 - loop_reference.cosine(a, b)) / 2, abs=1e-9)

    def test_endpoints_identical_classes_orthogonal_centroids(self):
        # three point-classes on orthogonal axes: homogeneity at its maximum,
        # separation exactly 50
        vectors = np.repeat(np.eye(3), 2, axis=0)
        labels = np.array([0, 0, 1, 1, 2, 2])
        inter, intra = structure(vectors, labels)
        assert intra == pytest.approx(100.0, abs=1e-9)
        assert inter == pytest.approx(50.0, abs=1e-9)

    def test_separation_formula_endpoints(self):
        orthogonal = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert cluster_separation(cos(orthogonal)) == pytest.approx(50.0)
        aligned = np.array([[1.0, 0.0], [2.0, 0.0]])
        assert cluster_separation(cos(aligned)) == pytest.approx(0.0)
        antiparallel = np.array([[1.0, 0.0], [-3.0, 0.0]])
        assert cluster_separation(cos(antiparallel)) == pytest.approx(100.0)

    def test_zero_norm_vector_is_domain_error(self):
        # the overlap, correlation and separation read the centroid cosine
        # matrix, whose one kernel call in analyze rejects a zero centroid
        examples, table, vocab, params = analysis_inputs([2, 3, 2, 2], zero_centroid=1)
        with pytest.raises(DomainError, match="zero-norm"):
            analyze(params, examples, table, vocab, cider=0.0, neighbor_k=1)

    def test_all_identical_vectors_degenerate(self):
        vectors = np.tile(np.array([1.0, 2.0]), (4, 1))
        with pytest.raises(DegenerateStatisticsError):
            cluster_homogeneity(vectors, np.array([0, 0, 1, 1]), np.array([0, 1]))

    def test_small_class_skipped_with_warning(self, rng, caplog):
        vectors = rng.normal(size=(5, 3))
        labels = np.array([0, 0, 0, 0, 1])
        with caplog.at_level("WARNING"):
            inter, intra = structure(vectors, labels)
        assert "skipped" in caplog.text
        assert np.isfinite(inter) and np.isfinite(intra)

    def test_duplicating_every_vector_never_decreases_homogeneity(self, rng):
        for trial in range(5):
            vectors = rng.normal(size=(10, 4))
            labels = rng.integers(0, 3, size=10)
            if min(np.bincount(labels, minlength=3)) < 2:
                continue
            _, intra = structure(vectors, labels)
            doubled = np.concatenate([vectors, vectors])
            _, intra2 = structure(doubled, np.concatenate([labels, labels]))
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
        inter, intra = structure(vectors, labels)
        assert inter == pytest.approx(payload["inter_cluster"], abs=1e-9)
        assert intra == pytest.approx(payload["intra_cluster"], abs=1e-9)

    def test_zero_spread_maximizes_homogeneity(self):
        ds = generate_synthetic_dataset(
            SyntheticSpec(num_classes=4, spread=0.0, images=30, feature_size=16), seed=1
        )
        vectors, labels = collect_objects(ds.train, ds.class_table.unk_id)
        _, intra = structure(vectors, labels)
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

    def test_vector_export_bytes_are_those_of_json_dumps(self, tmp_path):
        # magnitudes where Python writes the exponent form (below 1e-4, from
        # 1e16 up) next to plain ones, signed zeros and a non-ASCII label
        rng = np.random.default_rng(4)
        vectors = rng.normal(size=(200, 3, 6)) * 10.0 ** rng.integers(-12, 20, size=(200, 3, 6))
        vectors[0, 0, :2] = 0.0, -0.0
        exports = [ClassVectors(f"caf\u00e9 {i}", *rows) for i, rows in enumerate(vectors)]
        path = tmp_path / "vectors.jsonl"
        write_vector_export(exports, path)
        want = "".join(
            json.dumps({
                "label": cv.label,
                "word_vector": cv.word_vector.tolist(),
                "centroid_original": cv.centroid_original.tolist(),
                "centroid_projected": cv.centroid_projected.tolist(),
            }, sort_keys=True) + "\n"
            for cv in exports
        )
        assert path.read_bytes() == want.encode()

    def test_missing_labels_is_validation_error(self, setup):
        ds, vocab, params = setup
        for ex in ds.test:
            ex.labels = np.full_like(ex.labels, ds.class_table.unk_id)
        with pytest.raises(DataValidationError):
            analyze(params, ds.test, ds.class_table, vocab, cider=12.5)

    def test_malformed_report_json(self):
        with pytest.raises(DataValidationError):
            AnalysisReport.from_json('{"cider": 1.0}')
        with pytest.raises(DataValidationError):
            AnalysisReport.from_json('{"cider": 1.0')


@st.composite
def analysis_cases(draw):
    counts = draw(st.lists(st.integers(1, 4), min_size=3, max_size=20))
    k = draw(st.one_of(st.just(1), st.just(len(counts) - 1), st.integers(1, len(counts) - 1)))
    inputs = analysis_inputs(
        counts,
        seed=draw(st.integers(0, 2**32 - 1)),
        width=draw(st.integers(2, 8)),
        identity=draw(st.booleans()),
        signs=draw(st.booleans()),
    )
    return inputs, k


class TestAgainstReference:
    """``analyze`` against the structure analysis that computed every
    centroid twice and every cosine matrix up to four times
    (``tests/analysis_reference.py``): same bits, same failures, same
    warnings."""

    @settings(max_examples=150, deadline=None)
    @given(case=analysis_cases())
    def test_same_report_and_exports(self, case):
        inputs, k = case
        assert outcome(analyze, inputs, k) == outcome(analysis_reference.analyze, inputs, k)

    def test_benchmark_sized_split(self):
        ds = generate_synthetic_dataset(
            SyntheticSpec(num_classes=20, spread=0.3, images=120, feature_size=32), seed=3
        )
        vocab = build_vocabulary([c for ex in ds.train for c in ex.captions], min_count=1)
        cfg = ModelConfig(vocab_size=vocab.size, feature_size=32, hidden_size=16)
        params = ModelParams.init(cfg, np.random.default_rng(4))
        present = len(np.unique(collect_objects(ds.test, ds.class_table.unk_id)[1]))
        for k in (1, 3, present - 1):
            inputs = ds.test, ds.class_table, vocab, params
            new, old = outcome(analyze, inputs, k), outcome(analysis_reference.analyze, inputs, k)
            assert isinstance(new[0][0], str) and new == old

    DEGENERATE = {
        "one_class": dict(counts=[3]),
        "two_classes": dict(counts=[3, 2], k=1),
        "all_vectors_identical": dict(counts=[2, 3, 2], identical=True),
        "all_vectors_identical_and_k_too_large": dict(counts=[2, 3, 2], identical=True, k=5),
        "zero_norm_centroid": dict(counts=[2, 3, 2, 2], zero_centroid=1, k=1),
        "zero_norm_centroid_and_k_too_large": dict(counts=[2, 3, 2], zero_centroid=0, k=3),
        "zero_norm_word_vectors": dict(counts=[2, 3, 2], zero_embedding=True, k=1),
        "zero_norm_word_vectors_and_k_too_large": dict(
            counts=[2, 3, 2], zero_embedding=True, k=3
        ),
        "k_zero": dict(counts=[2, 3, 2], k=0),
        "only_singleton_classes": dict(counts=[1, 1, 1], k=1),
        "zero_projection": dict(counts=[2, 3, 2], zero_projection=True),
        "zero_projection_and_zero_norm_centroid": dict(
            counts=[2, 3, 2], zero_centroid=2, zero_projection=True
        ),
        "no_labeled_objects": dict(counts=[]),
    }

    @pytest.mark.parametrize("case", sorted(DEGENERATE))
    def test_degenerate_inputs_raise_like_reference(self, case):
        spec = dict(self.DEGENERATE[case])
        k = spec.pop("k", 2)
        zero_arrays = [name for name in ("embedding", "projection") if spec.pop(f"zero_{name}", 0)]
        inputs = analysis_inputs(spec.pop("counts"), **spec)
        for name in zero_arrays:
            inputs[3].arrays["input_proj" if name == "projection" else name][:] = 0.0
        new = outcome(analyze, inputs, k)
        assert isinstance(new[0][0], type) and issubclass(new[0][0], Exception), new
        assert new == outcome(analysis_reference.analyze, inputs, k)

    def test_cosine_matrix_calls(self, monkeypatch):
        counts = [2, 3, 4, 2, 5, 2, 3, 2, 2, 4]
        inputs = analysis_inputs(counts)
        real = kernels.pair_cosines_forward
        calls = []
        monkeypatch.setattr(
            kernels, "pair_cosines_forward", lambda vecs: calls.append(len(vecs)) or real(vecs)
        )
        outcome(analyze, inputs, 3)
        # one per class and space for homogeneity (classes of 2-5 objects),
        # and one (C, C) matrix for each space's centroids and the word vectors
        assert len(calls) == 3 + 2 * len(counts)
        assert calls.count(len(counts)) == 3
        calls.clear()
        outcome(analysis_reference.analyze, inputs, 3)
        assert len(calls) == 10 + 2 * len(counts)
