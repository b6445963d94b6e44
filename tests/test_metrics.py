"""Caption metric contracts, hand values, and reference-oracle equivalence.

The frozen numbers in tests/fixtures/metric_reference.json were produced
by tools/make_metric_fixtures.py, an independent adaptation of the
reference coco-caption scorers. ``metric_reference`` keeps the per-call
dict scorers that the interned n-gram tables replaced; the array scorers
must reproduce their floats bit for bit.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import metric_reference
from groundcap import metrics
from groundcap.data import SyntheticSpec, generate_synthetic_dataset, normalize
from groundcap.errors import DataValidationError, DomainError
from groundcap.metrics import EvaluationCorpus, bleu, cider, metric_table, rouge_l

FIXTURE = Path(__file__).parent / "fixtures" / "metric_reference.json"


def corpus_of(pairs):
    return EvaluationCorpus(
        entries=[(cand.split(), [r.split() for r in refs]) for cand, refs in pairs]
    )


@pytest.fixture(scope="module")
def reference():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def fixture_corpus(reference):
    return corpus_of(
        [(e["candidate"], e["references"]) for e in reference["corpus"]]
    )


class TestBleu:
    def test_identity_corpus_scores_one(self):
        corpus = corpus_of(
            [
                ("a dog runs across the field", ["a dog runs across the field"]),
                ("the blue bus is parked", ["the blue bus is parked"]),
            ]
        )
        for n in range(1, 5):
            assert bleu(corpus, n) == pytest.approx(1.0, abs=1e-8)

    def test_clipped_precision_hand_value(self):
        # candidate "the the the" vs reference "the cat": clipped count 1 of 3,
        # candidate longer than the reference so no brevity penalty
        corpus = corpus_of([("the the the", ["the cat"])])
        assert bleu(corpus, 1) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_disjoint_tokens_score_zero(self):
        corpus = corpus_of([("purple elephants", ["a red bus", "the bus"])])
        assert bleu(corpus, 1) == pytest.approx(0.0, abs=1e-9)

    def test_non_increasing_in_n(self, fixture_corpus):
        values = [bleu(fixture_corpus, n) for n in range(1, 5)]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-12

    def test_brevity_penalty_applies_when_short(self):
        short = corpus_of([("a bus", ["a very long caption about a bus ride"])])
        # precision 1 for "a" "bus"? "bus" appears, "a" appears -> p1 = 1
        # c = 2, r = 8 -> BP = exp(1 - 8/2)
        assert bleu(short, 1) == pytest.approx(math.exp(1 - 8 / 2), rel=1e-6)

    def test_domain_errors(self):
        corpus = corpus_of([("a", ["a"])])
        with pytest.raises(DomainError):
            bleu(corpus, 5)
        with pytest.raises(DomainError):
            bleu(EvaluationCorpus(entries=[]), 1)


class TestRougeL:
    def test_identity(self):
        corpus = corpus_of([("a dog runs", ["a dog runs"])])
        assert rouge_l(corpus) == pytest.approx(1.0, abs=1e-12)

    def test_no_common_token(self):
        corpus = corpus_of([("purple elephants", ["a red bus"])])
        assert rouge_l(corpus) == 0.0

    def test_hand_f_measure(self):
        # LCS=3, P=1, R=0.75, beta=1.2 -> 2.44*0.75 / (0.75 + 1.44)
        corpus = corpus_of([("the cat sat", ["the cat sat on"])])
        expected = (1 + 1.2**2) * 1.0 * 0.75 / (0.75 + 1.2**2 * 1.0)
        assert rouge_l(corpus) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.8356, abs=5e-5)

    def test_empty_candidate_scores_zero(self):
        corpus = corpus_of([("", ["a dog"]), ("a dog", ["a dog"])])
        assert rouge_l(corpus) == pytest.approx(0.5, abs=1e-12)


class TestCider:
    def test_empty_candidates_score_zero(self):
        corpus = corpus_of([("", ["a dog runs"]), ("", ["a cat sits"])])
        assert cider(corpus) == 0.0

    def test_single_image_is_domain_error(self):
        corpus = corpus_of([("a dog", ["a dog"])])
        with pytest.raises(DomainError, match="IDF"):
            cider(corpus)

    def test_matches_reference_fixture(self, reference, fixture_corpus):
        assert cider(fixture_corpus) == pytest.approx(
            reference["expected"]["CIDEr"], abs=1e-6
        )

    def test_duplicated_references_change_nothing(self, reference):
        doubled = corpus_of(
            [(e["candidate"], e["references"] * 2) for e in reference["corpus"]]
        )
        assert cider(doubled) == pytest.approx(
            reference["expected_doubled_references"]["CIDEr"], abs=1e-12
        )
        assert cider(doubled) == pytest.approx(reference["expected"]["CIDEr"], abs=1e-9)


class TestReferenceOracle:
    def test_all_metrics_match_within_1e6(self, reference, fixture_corpus):
        expected = reference["expected"]
        assert bleu(fixture_corpus, 1) == pytest.approx(expected["BLEU-1"], abs=1e-6)
        assert bleu(fixture_corpus, 2) == pytest.approx(expected["BLEU-2"], abs=1e-6)
        assert bleu(fixture_corpus, 3) == pytest.approx(expected["BLEU-3"], abs=1e-6)
        assert bleu(fixture_corpus, 4) == pytest.approx(expected["BLEU-4"], abs=1e-6)
        assert rouge_l(fixture_corpus) == pytest.approx(expected["ROUGE-L"], abs=1e-6)
        assert cider(fixture_corpus) == pytest.approx(expected["CIDEr"], abs=1e-6)

    def test_metric_table_is_scaled_by_100(self, reference, fixture_corpus):
        table = metric_table(fixture_corpus)
        assert table["BLEU-1"] == pytest.approx(100 * reference["expected"]["BLEU-1"], abs=1e-4)
        assert table["CIDEr"] == pytest.approx(100 * reference["expected"]["CIDEr"], abs=1e-4)
        assert set(table) == {"BLEU-1", "BLEU-2", "BLEU-3", "BLEU-4", "ROUGE-L", "CIDEr"}


class TestInvariances:
    def test_permutation_of_images_and_references(self, reference, fixture_corpus):
        rng = np.random.default_rng(0)
        entries = list(fixture_corpus.entries)
        shuffled = [entries[i] for i in rng.permutation(len(entries))]
        shuffled = [
            (cand, [refs[j] for j in rng.permutation(len(refs))]) for cand, refs in shuffled
        ]
        permuted = EvaluationCorpus(entries=shuffled)
        for n in (1, 4):
            assert bleu(permuted, n) == pytest.approx(bleu(fixture_corpus, n), abs=1e-12)
        assert rouge_l(permuted) == pytest.approx(rouge_l(fixture_corpus), abs=1e-12)
        assert cider(permuted) == pytest.approx(cider(fixture_corpus), abs=1e-12)

    def test_scores_depend_only_on_token_sequences(self):
        a = corpus_of([("a dog runs", ["a dog runs fast", "the dog"]), ("x y", ["x y z"])])
        b = EvaluationCorpus(
            entries=[
                (["a", "dog", "runs"], [["a", "dog", "runs", "fast"], ["the", "dog"]]),
                (["x", "y"], [["x", "y", "z"]]),
            ]
        )
        assert bleu(a, 2) == bleu(b, 2)
        assert rouge_l(a) == rouge_l(b)
        assert cider(a) == cider(b)


class TestValidation:
    def test_missing_references_rejected(self):
        with pytest.raises(DataValidationError):
            EvaluationCorpus(entries=[(["a"], [])])

    def test_empty_reference_rejected(self):
        with pytest.raises(DataValidationError):
            EvaluationCorpus(entries=[(["a"], [[]])])


@st.composite
def corpora(draw):
    vocab = [f"w{i}" for i in range(draw(st.integers(3, 8)))]
    # candidates may use a token no reference holds
    cand = st.lists(st.sampled_from(vocab + ["unseen"]), max_size=20)
    ref = st.lists(st.sampled_from(vocab), min_size=1, max_size=12)
    refs = st.lists(ref, min_size=1, max_size=5).map(
        lambda rs: rs + rs[:1] if len(rs) < 5 and len(rs[0]) % 2 else rs
    )
    return EvaluationCorpus(entries=draw(st.lists(st.tuples(cand, refs), min_size=2, max_size=40)))


def _hex(values: dict) -> dict:
    return {k: v.hex() for k, v in values.items()}


# An empty candidate, a candidate longer than every reference with an n-gram
# absent from every reference, duplicated and one-token references (bigram
# length 0).
EDGE_CASES = corpus_of(
    [
        ("", ["a b", "c"]),
        ("a b a b c c x a b a", ["a b", "a b", "c"]),
        ("c", ["c", "a b c"]),
    ]
)


@st.composite
def wide_corpora(draw):
    """Corpora that stress the interning: up to 60 tokens, references of up
    to 25 tokens, candidates made only of unseen tokens, and images whose
    references are all identical."""
    vocab = [f"w{i}" for i in range(draw(st.integers(1, 60)))]
    unseen = ["u0", "u1", "u2"]
    ref = st.lists(st.sampled_from(vocab), min_size=1, max_size=25)
    entries = []
    for _ in range(draw(st.integers(2, 30))):
        refs = draw(st.lists(ref, min_size=1, max_size=5))
        if draw(st.booleans()):
            refs = [list(refs[0]) for _ in refs]
        pool = unseen if draw(st.booleans()) else vocab + unseen
        entries.append((draw(st.lists(st.sampled_from(pool), max_size=25)), refs))
    return EvaluationCorpus(entries=entries)


def _assert_bit_identical(corpus):
    assert _hex(metric_table(corpus)) == _hex(metric_reference.metric_table(corpus))
    for n in range(1, 5):
        assert bleu(corpus, n).hex() == metric_reference.bleu(corpus, n).hex()
    assert cider(corpus).hex() == metric_reference.cider(corpus).hex()


def benchmark_scale_corpus() -> EvaluationCorpus:
    """500 synthetic images with 3 references each. Each candidate is another
    image's caption: images 1, 4, 7, ... cut it short (possibly to nothing),
    and images 2, 5, 8, ... insert a token that no reference has."""
    dataset = generate_synthetic_dataset(SyntheticSpec(images=500, captions_per_image=3), seed=5)
    refs = [[normalize(c) for c in ex.captions] for ex in dataset.splits["train"]
            + dataset.splits["val"] + dataset.splits["test"]]
    rng = np.random.default_rng(5)
    entries = []
    for i, image_refs in enumerate(refs):
        other = refs[(i + 1 + int(rng.integers(len(refs) - 1))) % len(refs)]
        cand = list(other[int(rng.integers(len(other)))])
        if i % 3 == 1:
            cand = cand[: int(rng.integers(len(cand)))]
        elif i % 3 == 2:
            cand.insert(int(rng.integers(len(cand) + 1)), "unseen")
        entries.append((cand, image_refs))
    return EvaluationCorpus(entries=entries)


class TestReferenceIndexOracle:
    """The scorers on interned n-gram tables against the per-call dict scorers."""

    @settings(max_examples=150, deadline=None)
    @given(corpus=corpora())
    @example(corpus=EDGE_CASES)
    def test_bit_identical_to_per_call_scorers(self, corpus):
        _assert_bit_identical(corpus)
        assert rouge_l(corpus).hex() == metric_reference.rouge_l(corpus).hex()

    @settings(max_examples=150, deadline=None)
    @given(corpus=wide_corpora())
    @example(corpus=corpus_of([("u0 u1", ["a b a", "a b a"]), ("u2", ["c", "c"])]))
    def test_bit_identical_on_wide_vocabularies(self, corpus):
        _assert_bit_identical(corpus)

    def test_bit_identical_at_benchmark_scale(self):
        corpus = benchmark_scale_corpus()
        assert len(corpus) == 500
        assert {len(refs) for _, refs in corpus.entries} == {3}
        _assert_bit_identical(corpus)

    def test_metric_table_domain_errors(self):
        with pytest.raises(DomainError, match="BLEU"):
            metric_table(EvaluationCorpus(entries=[]))
        with pytest.raises(DomainError, match="IDF"):
            metric_table(corpus_of([("a", ["a"])]))


def _scan_mismatches(values, numpy_fn, python_fn):
    """The values where ``numpy_fn`` and ``python_fn`` give different bits."""
    python = np.array([python_fn(v) for v in values.tolist()])
    return values[numpy_fn(values) != python]


class TestPythonArithmeticHelpers:
    """CIDEr-D's idf, squared weights and length penalty go through ``math``
    and Python's ``**``, whose bits numpy's ufuncs do not always give. Each
    case scans for values where the two disagree and checks the scorer's
    helper on them; it skips only where they agree on every value scanned."""

    def test_square_is_python_pow(self):
        weights = np.random.default_rng(0).uniform(0.0, 100.0, 1_000_000)
        differ = _scan_mismatches(weights, lambda w: w * w, lambda w: w**2)
        if not len(differ):
            pytest.skip("numpy's w*w equals Python's w**2 on every value scanned")
        assert [v.hex() for v in metrics._square(differ).tolist()] == [
            (w**2).hex() for w in differ.tolist()
        ]

    def test_penalty_is_math_exp(self):
        delta = np.arange(-1000, 1001)
        differ = _scan_mismatches(
            delta,
            lambda d: np.exp(-(d.astype(np.float64) ** 2) / (2.0 * metrics.CIDER_SIGMA**2)),
            lambda d: math.exp(-(float(d) ** 2) / (2.0 * metrics.CIDER_SIGMA**2)),
        )
        if not len(differ):
            pytest.skip("np.exp equals math.exp on every penalty argument scanned")
        assert [v.hex() for v in metrics._penalty(differ).tolist()] == [
            math.exp(-(float(d) ** 2) / (2.0 * metrics.CIDER_SIGMA**2)).hex()
            for d in differ.tolist()
        ]

    def test_idf_is_math_log(self):
        # with log_m = 0 the idf is the negated log, so no rounding hides a change
        df = np.arange(1, 1_000_001)
        differ = _scan_mismatches(df, lambda d: np.log(d.astype(np.float64)), math.log)
        if not len(differ):
            pytest.skip("np.log equals math.log on every document frequency scanned")
        assert [v.hex() for v in metrics._idf(differ, 0.0).tolist()] == [
            (0.0 - math.log(d)).hex() for d in differ.tolist()
        ]


class TestMeanOverOrders:
    def test_np_mean_of_four_adds_left_to_right(self):
        """``_cider`` takes each image's mean over the 4 orders as
        ``(((c0 + c1) + c2) + c3) / 4.0``, where the dict scorers called
        ``np.mean`` per image. The two agree only while numpy adds 4 values
        left to right from 0.0; this checks it on rows where every other
        order tried rounds differently."""
        rng = np.random.default_rng(0)
        rows = rng.random((200_000, 4)) * 10.0 ** rng.integers(-8, 8, size=(200_000, 4))
        c0, c1, c2, c3 = rows.T
        left = ((c0 + c1) + c2) + c3
        others = [(c0 + c1) + (c2 + c3), ((c3 + c2) + c1) + c0, c0 + ((c1 + c2) + c3)]
        differ = np.logical_and.reduce([left != other for other in others])
        assert differ.sum() > 1000
        assert [float(np.mean(row)).hex() for row in rows[differ]] == [
            v.hex() for v in (left[differ] / 4.0).tolist()
        ]
