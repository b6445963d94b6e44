"""Vocabulary construction, caption codec, dataset I/O, synthetic generator."""

import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decode_reference import decode_tokens
from groundcap import data
from groundcap.data import (
    BOS_ID,
    EOS_ID,
    UNK_ID,
    ClassTable,
    SyntheticSpec,
    Vocabulary,
    build_vocabulary,
    encode_caption,
    generate_synthetic_dataset,
    normalize,
)
from groundcap.errors import ConfigError, DataValidationError


def _float64_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# both zeros, subnormals (the smallest and the largest), the smallest normal
# and the largest finite value
EXTREME_FLOATS = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -5e-324,
                  2.225073858507201e-308, 2.2250738585072014e-308, -1.7976931348623157e308]
FINITE_FLOAT64 = st.one_of(
    st.sampled_from(EXTREME_FLOATS),
    st.integers(0, 2**64 - 1).map(_float64_of_bits).filter(math.isfinite),
)
# two distinct values (0.0 and -0.0 count as one) for a box's side
BOX_SIDE = st.lists(FINITE_FLOAT64, min_size=2, max_size=2, unique=True)
RECORD_WITH_ID = (
    '{"id": ID, "features": [[0.5]], "boxes": [[0.0, 0.0, 1.0, 1.0]], '
    '"labels": [0], "captions": ["a"]}\n'
)


class TestVocabulary:
    def test_min_count_filters_rare_tokens(self):
        vocab = build_vocabulary(["a dog", "a dog runs"], min_count=2)
        assert "a" in vocab and "dog" in vocab
        assert "runs" not in vocab
        assert vocab.token_to_id("runs") == UNK_ID
        assert vocab.size == 5  # 3 reserved + {a, dog}

    def test_singleton(self):
        vocab = build_vocabulary(["x"], min_count=1)
        assert "x" in vocab
        assert vocab.size == 4

    def test_normalization_rules(self):
        assert normalize("A Dog!") == ["a", "dog"]
        assert normalize("  don't STOP-now  ") == ["dont", "stopnow"]
        assert normalize("") == []

    def test_reserved_ids_distinct_and_present(self):
        vocab = build_vocabulary(["word"], min_count=1)
        assert len({BOS_ID, EOS_ID, UNK_ID}) == 3
        assert vocab.id_to_token(BOS_ID) == data.BOS_TOKEN
        assert vocab.id_to_token(EOS_ID) == data.EOS_TOKEN
        assert vocab.id_to_token(UNK_ID) == data.UNK_TOKEN

    def test_all_below_threshold_warns_and_keeps_reserved(self, caplog):
        with caplog.at_level("WARNING"):
            vocab = build_vocabulary(["rare words only"], min_count=5)
        assert vocab.size == 3
        assert "min_count" in caplog.text

    def test_empty_captions_is_config_error(self):
        with pytest.raises(ConfigError):
            build_vocabulary([], min_count=1)


class TestEncodeCaption:
    @pytest.fixture
    def vocab(self):
        return build_vocabulary(["a dog", "a cat"], min_count=1)

    def test_basic_encoding(self, vocab):
        ids = encode_caption("a dog", vocab, max_len=16)
        assert ids == [vocab.token_to_id("a"), vocab.token_to_id("dog"), EOS_ID]

    def test_truncation(self, vocab):
        long = " ".join(["a"] * 20)
        ids = encode_caption(long, vocab, max_len=16)
        assert len(ids) == 17 and ids[-1] == EOS_ID

    def test_empty_text(self, vocab):
        assert encode_caption("", vocab) == [EOS_ID]

    def test_oov_maps_to_unk(self, vocab):
        assert encode_caption("zebra", vocab) == [UNK_ID, EOS_ID]

    def test_ids_below_vocab_size(self, vocab):
        for i in encode_caption("a dog eats a cat", vocab):
            assert i < vocab.size

    @given(st.text(max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_reproduces_normalized_truncation(self, text):
        tokens = normalize(text)
        vocab = build_vocabulary([text] if tokens else ["x"], min_count=1)
        decoded = decode_tokens(encode_caption(text, vocab, max_len=16), vocab)
        assert decoded == " ".join(tokens[:16])


class TestClassTable:
    def test_roundtrip_and_unk(self):
        table = ClassTable({0: "dog", 1: "traffic light", 2: "UNK"})
        again = ClassTable.from_json(table.to_json())
        assert again.names == table.names
        assert again.unk_id == 2

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DataValidationError):
            ClassTable({0: "dog", 1: "dog", 2: "UNK"})

    def test_label_tokens_require_vocabulary_coverage(self):
        table = ClassTable({0: "traffic light", 1: "UNK"})
        vocab = build_vocabulary(["a traffic light"], min_count=1)
        tokens = table.label_token_ids(vocab)
        assert tokens == {0: [vocab.token_to_id("traffic"), vocab.token_to_id("light")]}
        poor = build_vocabulary(["a dog"], min_count=1)
        with pytest.raises(ConfigError):
            table.label_token_ids(poor)


class TestSyntheticGenerator:
    def test_zero_spread_objects_equal_prototype(self):
        spec = SyntheticSpec(num_classes=4, spread=0.0, images=10, feature_size=16)
        ds = generate_synthetic_dataset(spec, seed=7)
        protos = {}
        for ex in ds.train + ds.val + ds.test:
            for vec, label in zip(ex.features, ex.labels):
                if label in protos:
                    np.testing.assert_array_equal(vec, protos[label])
                else:
                    protos[label] = vec
        # distinct centroids
        keys = sorted(protos)
        for i in keys:
            for j in keys:
                if i < j:
                    assert not np.allclose(protos[i], protos[j])

    def test_determinism_byte_identical_files(self, tmp_path):
        spec = SyntheticSpec(num_classes=3, images=12, feature_size=16)
        for name in ("a", "b"):
            ds = generate_synthetic_dataset(spec, seed=99)
            data.save_dataset(ds, tmp_path / name)
        for fname in ("train.jsonl", "val.jsonl", "test.jsonl", "classes.json"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_centroids_recover_prototypes(self):
        spec = SyntheticSpec(num_classes=10, spread=0.3, images=500, feature_size=32)
        ds = generate_synthetic_dataset(spec, seed=5)
        protos = data.class_prototypes(spec, np.random.default_rng(5))
        sums = {c: np.zeros(spec.feature_size) for c in range(10)}
        counts = {c: 0 for c in range(10)}
        for ex in ds.train + ds.val + ds.test:
            for vec, label in zip(ex.features, ex.labels):
                sums[label] += vec
                counts[label] += 1
        for c in range(10):
            centroid = sums[c] / counts[c]
            cos = centroid @ protos[c] / (np.linalg.norm(centroid) * np.linalg.norm(protos[c]))
            assert cos >= 0.95

    def test_split_sizes(self):
        ds = generate_synthetic_dataset(
            SyntheticSpec(num_classes=3, images=50, feature_size=16), seed=1
        )
        assert (len(ds.train), len(ds.val), len(ds.test)) == (40, 5, 5)

    def test_captions_mention_present_labels(self):
        ds = generate_synthetic_dataset(
            SyntheticSpec(num_classes=8, images=20, feature_size=24), seed=3
        )
        for ex in ds.train:
            present = {ds.class_table.label(l) for l in ex.labels}
            joined = " ".join(ex.captions)
            assert any(lbl.split()[0] in joined for lbl in present)

    def test_scrambled_geometry_permutes_prototypes(self):
        base = SyntheticSpec(num_classes=6, images=10, feature_size=24)
        matched = data.class_prototypes(base, np.random.default_rng(11))
        scrambled = data.class_prototypes(
            SyntheticSpec(num_classes=6, images=10, feature_size=24, geometry="scrambled"),
            np.random.default_rng(11),
        )
        assert not np.allclose(matched, scrambled)
        # same multiset of rows
        def rowset(m):
            return sorted(tuple(np.round(r, 10)) for r in m)
        assert rowset(matched) == rowset(scrambled)

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            generate_synthetic_dataset(SyntheticSpec(num_classes=2), seed=0)
        with pytest.raises(ConfigError):
            generate_synthetic_dataset(SyntheticSpec(images=5), seed=0)
        with pytest.raises(ConfigError):
            generate_synthetic_dataset(SyntheticSpec(objects_min=0, objects_max=0), seed=0)
        with pytest.raises(ConfigError):
            generate_synthetic_dataset(SyntheticSpec(geometry="weird"), seed=0)

    def test_group_cosine_structure(self):
        spec = SyntheticSpec(num_classes=10, images=10, feature_size=32)
        protos = data.class_prototypes(spec, np.random.default_rng(2))
        groups = data._class_groups(10)
        for g in groups:
            for i in g:
                for j in g:
                    if i != j:
                        assert protos[i] @ protos[j] == pytest.approx(
                            data.SAME_GROUP_COSINE, abs=1e-10
                        )
        assert protos[groups[0][0]] @ protos[groups[1][0]] == pytest.approx(0.0, abs=1e-10)


class TestDatasetIO:
    def test_jsonl_roundtrip(self, tmp_path):
        ds = generate_synthetic_dataset(
            SyntheticSpec(num_classes=3, images=10, feature_size=16), seed=4
        )
        path = tmp_path / "train.jsonl"
        data.write_jsonl(ds.train, path)
        back = data.read_jsonl(path)
        assert len(back) == len(ds.train)
        for a, b in zip(ds.train, back):
            assert a.image_id == b.image_id
            np.testing.assert_array_equal(a.features, b.features)
            assert a.labels == b.labels
            assert a.captions == b.captions

    def test_load_dataset_missing_file(self, tmp_path):
        with pytest.raises(DataValidationError):
            data.load_dataset(tmp_path)

    def test_malformed_record(self):
        with pytest.raises(DataValidationError):
            data.record_to_example({"id": "x"})

    @given(st.lists(st.tuples(st.integers(1, 3), st.data()), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    @example([(1, None)])
    def test_float_bits_survive_write_and_read(self, shapes):
        """Every finite float64 reads back with its exact bits, as ``json`` reads it."""
        examples = []
        for m, (k, draw) in enumerate(shapes):
            if draw is None:  # the explicit example: the extremes in one record
                feats, sides = [EXTREME_FLOATS], [((-0.0, 5e-324), (-1.7976931348623157e308, -5e-324))]
            else:
                feats = draw.draw(st.lists(
                    st.lists(FINITE_FLOAT64, min_size=3, max_size=3), min_size=k, max_size=k
                ))
                sides = [(draw.draw(BOX_SIDE), draw.draw(BOX_SIDE)) for _ in range(k)]
            boxes = [data.BoundingBox(min(xs), min(ys), max(xs), max(ys)) for xs, ys in sides]
            examples.append(data.ImageExample(
                image_id=f"img-{m}", features=np.array(feats), boxes=boxes,
                labels=[0] * len(boxes), captions=["a"],
            ))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "split.jsonl"
            data.write_jsonl(examples, path)
            oracle = [json.loads(line) for line in path.read_text().splitlines()]
            back = data.read_jsonl(path)
        for ex, rec, got in zip(examples, oracle, back):
            want_feats = [v.hex() for v in ex.features.ravel().tolist()]
            assert [v.hex() for v in got.features.ravel().tolist()] == want_feats
            assert [float(v).hex() for row in rec["features"] for v in row] == want_feats
            want_boxes = [v.hex() for b in ex.boxes for v in b.as_array().tolist()]
            assert [v.hex() for b in got.boxes for v in b.as_array().tolist()] == want_boxes
            assert [float(v).hex() for box in rec["boxes"] for v in box] == want_boxes

    def test_integer_id_reads_as_its_digits(self, tmp_path):
        path = tmp_path / "split.jsonl"
        path.write_text(RECORD_WITH_ID.replace("ID", "7"))
        assert [ex.image_id for ex in data.read_jsonl(path)] == ["7"]

    # 2**64 + 1: orjson reads an integer beyond 64 bits as a float, whose
    # str() would collide with that of 2**64
    @pytest.mark.parametrize("literal", ["18446744073709551617", "7.0", "true", "null"])
    def test_id_that_is_not_a_string_or_integer_is_rejected(self, literal, tmp_path):
        path = tmp_path / "split.jsonl"
        path.write_text(RECORD_WITH_ID.replace("ID", literal))
        with pytest.raises(DataValidationError, match="not a JSON string or a 64-bit integer"):
            data.read_jsonl(path)

    def test_degenerate_box_rejected(self):
        with pytest.raises(DataValidationError):
            data.BoundingBox(0.5, 0.2, 0.5, 0.8)
