"""Vocabulary construction, caption codec, dataset I/O, synthetic generator."""

import json
import math
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loop_reference
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
from groundcap.errors import ConfigError, DataValidationError, NumericalError


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
# the non-finite values and the extremes, so that the box rule meets each of them often
BOX_COORDINATE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1.0, -1.0, *EXTREME_FLOATS]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
# magnitudes from 1e-320 to 1e300 of both signs, and the values on both sides
# of 1e-4 and 1e16, where repr switches to the exponent form
RECORD_FLOATS = st.one_of(
    FINITE_FLOAT64,
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-320, 300)),
    st.sampled_from([sign * float(np.nextafter(x, to)) for sign in (1.0, -1.0)
                     for x in (1e-4, 1e16) for to in (0.0, x, np.inf)]),
    st.floats(-10.0, 10.0),
)
RECORD_BOX_SIDE = st.lists(RECORD_FLOATS, min_size=2, max_size=2, unique=True)
# ids and captions with quotes, backslashes, control characters, non-ASCII
# text and lone surrogates
RECORD_TEXT = st.one_of(
    st.sampled_from(['say "hi"', "back\\slash\\", "tab\tnew\nnul\x00\x1f\x7f", "café ☃ 𝄞",
                     "\ud800", "lone \udfff low"]),
    st.text(st.characters(categories=["Cc", "Cs", "L", "N", "P", "S", "Zs"]), max_size=8),
)


@st.composite
def image_examples(draw):
    k = draw(st.integers(1, 3))
    width = draw(st.integers(0, 4))
    feats = draw(st.lists(st.lists(RECORD_FLOATS, min_size=width, max_size=width),
                          min_size=k, max_size=k))
    sides = [(draw(RECORD_BOX_SIDE), draw(RECORD_BOX_SIDE)) for _ in range(k)]
    return data.ImageExample(
        image_id=draw(RECORD_TEXT), features=np.array(feats).reshape(k, width),
        boxes=np.array([[min(xs), min(ys), max(xs), max(ys)] for xs, ys in sides]),
        labels=draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=k, max_size=k)),
        captions=draw(st.lists(RECORD_TEXT, max_size=3)),
    )


# a value that repr writes in exponent form first, inside and last in a row
EXPONENT_FORM_RECORD = data.ImageExample(
    image_id='id "7"\\ \ud800', features=np.array([[1e-05, 0.5, -0.0, 2e+16],
                                                    [0.5, -3e-320, 0.5, 1.0],
                                                    [-5e-324, 1e300, 0.0001, 9.999e-05]]),
    boxes=np.array([[1e-07, -1e+17, 0.5, 1e-05]] * 3), labels=[0, 1, -1],
    captions=["caf\u00e9", "\x00\n\udc80"],
)
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
        assert encode_caption("", vocab, max_len=16) == [EOS_ID]

    def test_oov_maps_to_unk(self, vocab):
        assert encode_caption("zebra", vocab, max_len=16) == [UNK_ID, EOS_ID]

    def test_ids_below_vocab_size(self, vocab):
        for i in encode_caption("a dog eats a cat", vocab, max_len=16):
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

    @pytest.mark.parametrize("text", [
        '{"0": "dog", "0": "cat", "1": "UNK"}',
        '{"0": "dog", "1": "UNK", "0": "dog"}',
        # the same key, once escaped
        '{"\\u0030": "dog", "0": "cat", "1": "UNK"}',
    ])
    def test_repeated_key_rejected_by_name(self, text):
        with pytest.raises(DataValidationError, match="key '0' appears more than once"):
            ClassTable.from_json(text)

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

    def test_scrambled_geometry_redraws_an_identity_permutation(self):
        # at rng seed 23 the first two permutations of 3 classes are the identity
        spec = SyntheticSpec(num_classes=3, images=10, feature_size=8)
        matched = data.class_prototypes(spec, np.random.default_rng(23))
        scrambled = data.class_prototypes(
            replace(spec, geometry="scrambled"), np.random.default_rng(23)
        )
        np.testing.assert_array_equal(scrambled, matched[[2, 0, 1]])

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


ACCEPTANCE_DATA = SyntheticSpec(num_classes=10, spread=0.1, images=500, feature_size=32,
                                objects_min=2, objects_max=4, captions_per_image=3)
GENERATOR_SPECS = {
    "default": SyntheticSpec(),
    "acceptance": ACCEPTANCE_DATA,
    "train_grounded": replace(ACCEPTANCE_DATA, num_classes=20, objects_max=10),
    "scrambled": SyntheticSpec(geometry="scrambled"),
    "one_object": SyntheticSpec(objects_min=1, objects_max=1),
    "classes_24": SyntheticSpec(num_classes=24),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_SPECS))
def test_generator_matches_the_per_object_oracle(name, monkeypatch):
    """The same arrays and captions, bit for bit, and the same generator
    state afterwards as ``loop_reference``'s one draw per object."""
    made = []
    real = np.random.default_rng

    def recording_default_rng(seed):
        made.append(real(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording_default_rng)
    for seed in range(1, 6):
        got = generate_synthetic_dataset(GENERATOR_SPECS[name], seed)
        want = loop_reference.generate_synthetic_dataset(GENERATOR_SPECS[name], seed)
        assert made[-2].bit_generator.state == made[-1].bit_generator.state
        assert got.class_table == want.class_table
        for split in data.SPLITS:
            for a, b in zip(got.splits[split], want.splits[split], strict=True):
                assert a.image_id == b.image_id and a.captions == b.captions
                for field in ("features", "boxes", "labels"):
                    x, y = getattr(a, field), getattr(b, field)
                    assert x.dtype == y.dtype and x.shape == y.shape
                    assert x.tobytes() == y.tobytes()


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
            np.testing.assert_array_equal(a.labels, b.labels)
            assert a.captions == b.captions

    def test_failed_save_leaves_the_previous_files(self, tmp_path, monkeypatch):
        spec = SyntheticSpec(num_classes=3, images=10, feature_size=4)
        data.save_dataset(generate_synthetic_dataset(spec, seed=4), tmp_path)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        real = data.record_json
        calls = []

        def fails_on_the_second_image(ex):
            calls.append(ex.image_id)
            if len(calls) == 2:
                raise OSError("disk full")
            return real(ex)

        monkeypatch.setattr(data, "record_json", fails_on_the_second_image)
        with pytest.raises(OSError, match="disk full"):
            data.save_dataset(generate_synthetic_dataset(spec, seed=5), tmp_path)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("field, value", [("features", math.nan), ("features", math.inf),
                                              ("boxes", -math.inf)])
    def test_non_finite_value_leaves_the_previous_file(self, field, value, tmp_path):
        ds = generate_synthetic_dataset(SyntheticSpec(num_classes=3, images=10, feature_size=4),
                                        seed=4)
        path = tmp_path / "train.jsonl"
        data.write_jsonl(ds.train, path)
        before = path.read_bytes()
        bad = ds.train[1]
        getattr(bad, field)[0, 0] = value
        with pytest.raises(NumericalError, match=f"image {bad.image_id} has non-finite"):
            data.write_jsonl(ds.train, path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before

    def test_non_finite_value_in_any_split_creates_no_directory(self, tmp_path):
        ds = generate_synthetic_dataset(SyntheticSpec(num_classes=3, images=10, feature_size=4),
                                        seed=4)
        bad = ds.test[-1]
        bad.boxes[0, 2] = math.nan
        with pytest.raises(NumericalError, match=f"image {bad.image_id} has non-finite"):
            data.save_dataset(ds, tmp_path / "out" / "data")
        assert list(tmp_path.iterdir()) == []

    @given(st.lists(image_examples(), max_size=3))
    @settings(max_examples=200, deadline=None)
    @example([])
    @example([EXPONENT_FORM_RECORD])
    def test_write_jsonl_bytes_equal_json_dumps(self, examples):
        want = "".join(json.dumps(data.example_to_record(ex), sort_keys=True) + "\n"
                       for ex in examples)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "split.jsonl"
            data.write_jsonl(examples, path)
            assert path.read_bytes() == want.encode()

    def test_load_dataset_missing_file(self, tmp_path):
        with pytest.raises(DataValidationError):
            data.load_dataset(tmp_path)

    @pytest.mark.parametrize("split", data.SPLITS)
    def test_scoped_load_reads_one_split(self, split, tmp_path):
        ds = generate_synthetic_dataset(
            SyntheticSpec(num_classes=3, images=20, feature_size=6), seed=4
        )
        data.save_dataset(ds, tmp_path)
        full = data.load_dataset(tmp_path)
        scoped = data.load_dataset(tmp_path, split=split)
        assert scoped.class_table == full.class_table
        for name in data.SPLITS:
            got = scoped.splits[name]
            want = full.splits[name] if name == split else []
            assert [ex.image_id for ex in got] == [ex.image_id for ex in want]
            for a, b in zip(got, want):
                assert a.features.tobytes() == b.features.tobytes()
                assert a.boxes.tobytes() == b.boxes.tobytes()
                assert a.labels.tobytes() == b.labels.tobytes()
                assert a.captions == b.captions

    @pytest.mark.parametrize("literal", ["18446744073709551617", "7.0", "true", "null"])
    def test_scoped_load_checks_the_ids_of_the_other_splits(self, literal, tmp_path):
        for name in data.SPLITS:
            (tmp_path / f"{name}.jsonl").write_text(RECORD_WITH_ID.replace("ID", f'"{name}"'))
        (tmp_path / "val.jsonl").write_text(RECORD_WITH_ID.replace("ID", literal))
        (tmp_path / "classes.json").write_text('{"0": "a", "1": "UNK"}')
        with pytest.raises(DataValidationError, match="not a JSON string or a 64-bit integer"):
            data.load_dataset(tmp_path, split="test")

    def test_unknown_split_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown split"):
            data.load_dataset(tmp_path, split="dev")

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
            boxes = np.array([[min(xs), min(ys), max(xs), max(ys)] for xs, ys in sides])
            examples.append(data.ImageExample(
                image_id=f"img-{m}", features=np.array(feats), boxes=boxes,
                labels=np.zeros(len(boxes), dtype=np.int64), captions=["a"],
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
            want_boxes = [v.hex() for v in ex.boxes.ravel().tolist()]
            assert [v.hex() for v in got.boxes.ravel().tolist()] == want_boxes
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
            data.ImageExample(
                image_id="x", features=np.zeros((1, 1)), boxes=np.array([[0.5, 0.2, 0.5, 0.8]]),
                labels=np.zeros(1, dtype=np.int64), captions=["a"],
            )

    @given(st.lists(BOX_COORDINATE, min_size=1, max_size=4),
           st.lists(st.integers(0, 3), min_size=4, max_size=4))
    @settings(max_examples=300, deadline=None)
    @example([0.2, 0.5], [0, 0, 1, 1])  # swapped corners
    @example([0.2, 0.5], [0, 0, 0, 1])  # equal x edges
    @example([0.0, -0.0, 1.0], [0, 0, 1, 2])  # 0.0 to -0.0 is no extent
    @example([-0.0, 0.0, 1.0], [0, 0, 1, 2])
    @example([0.0, 5e-324, -5e-324], [2, 2, 0, 1])  # subnormal extents
    @example([math.nan, 0.0, 1.0], [1, 0, 2, 1])
    @example([math.nan, 0.0, 1.0], [1, 1, 2, 0])
    @example([-math.inf, 0.0, 1.0], [0, 1, 2, 2])
    @example([math.inf, 0.0, 1.0], [1, 1, 0, 2])
    def test_box_rule_matches_the_per_box_oracle(self, pool, picks):
        """``ImageExample`` keeps exactly the boxes ``loop_reference.box_is_valid``
        accepts, with their bits. Coordinates come from a pool of up to four
        values, so equal edges and swapped corners are common."""
        box = [pool[i % len(pool)] for i in picks]

        def make():
            return data.ImageExample(
                image_id="x", features=np.zeros((1, 1)), boxes=[box],
                labels=[0], captions=["a"],
            )

        if loop_reference.box_is_valid(*box):
            assert [v.hex() for v in make().boxes[0].tolist()] == [v.hex() for v in box]
        else:
            with pytest.raises(DataValidationError, match="degenerate or non-finite box"):
                make()
