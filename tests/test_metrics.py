"""Caption metric contracts, hand values, and reference-oracle equivalence.

The frozen numbers in tests/fixtures/metric_reference.json were produced
by tools/make_metric_fixtures.py, an independent adaptation of the
reference coco-caption scorers. ``metric_reference`` keeps the per-call
scorers that the reference index replaced; the index-based scorers must
reproduce their floats bit for bit.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import metric_reference
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


class TestReferenceIndexOracle:
    @settings(max_examples=150, deadline=None)
    @given(corpus=corpora())
    @example(corpus=EDGE_CASES)
    def test_bit_identical_to_per_call_scorers(self, corpus):
        assert _hex(metric_table(corpus)) == _hex(metric_reference.metric_table(corpus))
        for n in range(1, 5):
            assert bleu(corpus, n).hex() == metric_reference.bleu(corpus, n).hex()
        assert rouge_l(corpus).hex() == metric_reference.rouge_l(corpus).hex()
        assert cider(corpus).hex() == metric_reference.cider(corpus).hex()

    def test_metric_table_domain_errors(self):
        with pytest.raises(DomainError, match="BLEU"):
            metric_table(EvaluationCorpus(entries=[]))
        with pytest.raises(DomainError, match="IDF"):
            metric_table(corpus_of([("a", ["a"])]))
