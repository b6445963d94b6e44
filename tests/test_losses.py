"""Loss heads: endpoints, sampling contracts, gradients, invariances."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loop_reference
from groundcap import autodiff as ad
from groundcap import kernels, losses
from groundcap.autodiff import Tensor
from groundcap.errors import ConfigError, DomainError
from groundcap.training import TrainConfig
from groundcap.losses import (
    LabeledProjection,
    build_projection_pool,
    batch_cross_entropy,
    cluster_loss,
    label_embedding_matrix,
    perceptual_loss,
    sample_pairs,
    sample_triplets,
    total_loss,
)

FD_TOL = 1e-4


def make_pool(vectors: np.ndarray, labels) -> LabeledProjection:
    labels = np.asarray(labels, dtype=np.int64)
    return LabeledProjection(
        vectors=Tensor(vectors), rows=np.arange(len(labels)), class_ids=labels
    )



def cluster(pool: LabeledProjection, triplets, margin: float) -> Tensor:
    """The cluster head on the pool's cosines of its triplets."""
    anchors, positives, negatives = triplets
    return cluster_loss(*pool.cosines([(anchors, positives), (anchors, negatives)]), margin)


def perceptual(pool: LabeledProjection, pairs, w_e: Tensor, tokens) -> Tensor:
    """The perceptual head on the pool's cosines of its pairs."""
    return perceptual_loss(pool, pairs, *pool.cosines([pairs]), w_e, tokens)

class TestCrossEntropy:
    def test_batch_mean(self):
        per_example = Tensor(np.array([-1.0, -3.0]))
        assert batch_cross_entropy(per_example).item() == pytest.approx(2.0)


class TestSampleTriplets:
    def test_enumeration_two_a_one_b(self):
        pool = make_pool(np.eye(3), [0, 0, 1])
        a, p, n = sample_triplets(pool, 500, np.random.default_rng(0))
        assert len(a) > 0
        seen = {(int(i), int(j), int(k)) for i, j, k in zip(a, p, n)}
        assert seen <= {(0, 1, 2), (1, 0, 2)}
        assert seen == {(0, 1, 2), (1, 0, 2)}

    def test_single_class_pool_yields_nothing(self):
        pool = make_pool(np.eye(3), [5, 5, 5])
        a, p, n = sample_triplets(pool, 100, np.random.default_rng(0))
        assert len(a) == len(p) == len(n) == 0

    def test_deterministic_given_seed(self):
        pool = make_pool(np.random.default_rng(3).normal(size=(10, 4)), [0, 0, 1, 1, 2, 2, 0, 1, 2, 0])
        draws = [sample_triplets(pool, 50, np.random.default_rng(42)) for _ in range(2)]
        for x, y in zip(*draws):
            np.testing.assert_array_equal(x, y)

    def test_constraints_hold(self):
        labels = [0, 0, 1, 1, 2]
        pool = make_pool(np.eye(5), labels)
        a, p, n = sample_triplets(pool, 300, np.random.default_rng(9))
        labels = np.asarray(labels)
        assert (labels[a] == labels[p]).all()
        assert (labels[a] != labels[n]).all()
        assert (a != p).all()


# Class ids are sparse so that dense class indices and ids differ; short
# label lists give singleton classes, one-class pools and n in {0, 1, 2}.
LABELS = st.lists(st.sampled_from([0, 3, 7, 40]), max_size=14)
DRAWS = st.lists(st.integers(0, 60), min_size=1, max_size=3)
SEEDS = st.integers(0, 2**32 - 1)


def assert_same_stream(sampler, reference, labels, draws, seed):
    """Consecutive calls on one generator give the reference's index arrays
    and leave the generator in the reference's state after every call."""
    # the samplers read only the labels; a pool's rows are never zero
    pool = make_pool(np.ones((len(labels), 2)), labels)
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    for n_draws in draws:
        got = sampler(pool, n_draws, rng)
        want = reference(pool, n_draws, ref_rng)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestSamplersMatchLoopReference:
    @settings(max_examples=300, deadline=None)
    @given(labels=LABELS, draws=DRAWS, seed=SEEDS)
    @example(labels=[], draws=[5], seed=0)
    @example(labels=[3], draws=[5], seed=0)
    @example(labels=[3, 7], draws=[5, 0], seed=0)
    @example(labels=[3, 3], draws=[5], seed=0)
    @example(labels=[7, 7, 7, 7], draws=[20], seed=1)
    @example(labels=[0, 3, 7, 40], draws=[20], seed=2)
    def test_sample_triplets(self, labels, draws, seed):
        assert_same_stream(
            sample_triplets, loop_reference.sample_triplets, labels, draws, seed
        )

    @settings(max_examples=300, deadline=None)
    @given(labels=LABELS, draws=DRAWS, seed=SEEDS)
    @example(labels=[], draws=[5], seed=0)
    @example(labels=[3], draws=[5], seed=0)
    @example(labels=[3, 7], draws=[5, 0], seed=0)
    @example(labels=[7, 7, 7], draws=[20], seed=1)
    def test_sample_pairs(self, labels, draws, seed):
        assert_same_stream(sample_pairs, loop_reference.sample_pairs, labels, draws, seed)

    @settings(max_examples=100, deadline=None)
    @given(labels=LABELS, draws=DRAWS, seed=SEEDS)
    def test_sample_triplets_recovers_from_a_wrong_first_guess(self, labels, draws, seed):
        # Every anchor guessed as the first stream value: the redraw loop
        # alone must then find the stream.
        wrong = lambda step, count: np.zeros(count, np.int64)  # noqa: E731
        with mock.patch.object(losses, "_walk", wrong):
            assert_same_stream(
                sample_triplets, loop_reference.sample_triplets, labels, draws, seed
            )

    def test_benchmark_sized_pool(self):
        labels = np.random.default_rng(4).integers(0, 20, size=555)
        for sampler, reference in (
            (sample_triplets, loop_reference.sample_triplets),
            (sample_pairs, loop_reference.sample_pairs),
        ):
            assert_same_stream(sampler, reference, labels, [2000, 2000], 11)


class TestClusterLoss:
    def test_margin_satisfied_is_zero(self):
        # cos(a,p) = 1, cos(a,n) = 0, margin 0.5 -> hinge 0
        vecs = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        pool = make_pool(vecs, [0, 0, 1])
        trip = (np.array([0]), np.array([1]), np.array([2]))
        assert cluster(pool, trip, 0.5).item() == 0.0

    def test_identical_vectors_give_margin(self):
        vecs = np.tile(np.array([1.0, 2.0]), (3, 1))
        pool = make_pool(vecs, [0, 0, 1])
        trip = (np.array([0]), np.array([1]), np.array([2]))
        assert cluster(pool, trip, 0.5).item() == pytest.approx(0.5, abs=1e-15)

    def test_mean_of_hinges(self):
        # two triplets engineered to hinge values 0 and 0.3
        v = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [np.cos(0.2), np.sin(0.2)]])
        pool = make_pool(v, [0, 0, 1, 1])
        cos_an1 = float(v[0] @ v[3])
        trip = (np.array([0, 0]), np.array([1, 1]), np.array([2, 3]))
        margin = 0.5
        h1 = max(0.0, margin - 1.0 + 0.0)
        h2 = max(0.0, margin - 1.0 + cos_an1)
        got = cluster(pool, trip, margin).item()
        assert got == pytest.approx((h1 + h2) / 2.0, abs=1e-12)

    def test_empty_triplets_constant_zero(self):
        pool = make_pool(np.eye(2), [0, 0])
        out = cluster(pool, sample_triplets(pool, 10, np.random.default_rng(0)), 0.5)
        assert out.item() == 0.0
        assert not out.requires_grad

    def test_nonnegative_always(self, rng):
        vecs = rng.normal(size=(12, 5))
        pool = make_pool(vecs, rng.integers(0, 3, size=12))
        trip = sample_triplets(pool, 200, rng)
        assert cluster(pool, trip, 0.5).item() >= 0.0


class TestSamplePairs:
    def test_two_classes_single_pair(self):
        pool = make_pool(np.eye(2), [0, 1])
        left, right = sample_pairs(pool, 50, np.random.default_rng(1))
        assert len(left) > 0
        assert {frozenset((int(i), int(j))) for i, j in zip(left, right)} == {frozenset((0, 1))}

    def test_single_class_empty(self):
        pool = make_pool(np.eye(3), [2, 2, 2])
        left, right = sample_pairs(pool, 50, np.random.default_rng(1))
        assert len(left) == 0

    def test_deterministic(self):
        pool = make_pool(np.eye(6), [0, 0, 1, 1, 2, 2])
        a = sample_pairs(pool, 40, np.random.default_rng(7))
        b = sample_pairs(pool, 40, np.random.default_rng(7))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestLabelEmbedding:
    def test_single_token_label(self, rng):
        w_e = rng.normal(size=(4, 9))
        matrix, row = label_embedding_matrix(Tensor(w_e), np.array([0]), {0: [3]})
        np.testing.assert_array_equal(matrix.data, w_e[:, [3]].T)
        np.testing.assert_array_equal(row, [0])

    def test_multi_token_label_averages(self, rng):
        w_e = rng.normal(size=(4, 9))
        matrix, row = label_embedding_matrix(
            Tensor(w_e), np.array([1, 0, 1]), {0: [3], 1: [2, 5]}
        )
        np.testing.assert_allclose(matrix.data[1], (w_e[:, 2] + w_e[:, 5]) / 2.0, atol=1e-15)
        np.testing.assert_array_equal(row, [1, 0, 1])

    def test_unknown_class_is_error(self, rng):
        with pytest.raises(DomainError):
            label_embedding_matrix(Tensor(rng.normal(size=(4, 9))), np.array([7]), {0: [1]})


class TestPerceptualLoss:
    def _run(self, obj_vecs, labels, w_e, tokens, seed=0, draws=200):
        pool = make_pool(obj_vecs, labels)
        pairs = sample_pairs(pool, draws, np.random.default_rng(seed))
        return perceptual(pool, pairs, Tensor(w_e), tokens)

    def test_perfectly_correlated_gives_minus_one(self):
        # object space equals the word space -> identical similarity lists
        w_e = np.random.default_rng(2).normal(size=(3, 4))
        tokens = {c: [c] for c in range(4)}
        obj = w_e.T.copy()  # vec of class c = embedding of token c
        out = self._run(obj, [0, 1, 2, 3], w_e, tokens)
        assert out.item() == pytest.approx(-1.0, abs=1e-10)

    def test_anticorrelated_gives_plus_one(self):
        # three classes on the unit circle; object space flips the angles
        angles = np.array([0.0, 0.4, 1.1])
        w_e = np.stack([np.cos(angles), np.sin(angles)])  # (2, 3 tokens)
        tokens = {c: [c] for c in range(3)}
        # cos(text) pairs: cos(0.4), cos(1.1), cos(0.7)
        # choose object vectors whose cosines are the negatives
        t_sims = [np.cos(0.4), np.cos(1.1), np.cos(0.7)]
        o_angles = np.arccos(np.array([-t_sims[0], -t_sims[1]]))
        obj = np.stack(
            [np.array([1.0, 0.0]),
             np.array([np.cos(o_angles[0]), np.sin(o_angles[0])]),
             np.array([np.cos(o_angles[1]), np.sin(o_angles[1])])]
        )
        # sims(obj): pair(0,1) = -t01, pair(0,2) = -t02, pair(1,2) = whatever
        # use only pairs (0,1) and (0,2) plus (1,2) -> not exactly anti-linear;
        # instead verify against a hand pearson on the actual sampled pairs
        pool = make_pool(obj, [0, 1, 2])
        pairs = sample_pairs(pool, 100, np.random.default_rng(3))
        out = perceptual(pool, pairs, Tensor(w_e), tokens)
        sims_o = [loop_reference.cosine(obj[i], obj[j]) for i, j in zip(*pairs)]
        sims_t = [loop_reference.cosine(w_e[:, i], w_e[:, j]) for i, j in zip(*pairs)]
        assert out.item() == pytest.approx(-kernels.pearson(sims_o, sims_t), abs=1e-12)

    def test_hand_pearson_value(self):
        # obj sims (0.9, 0.1, 0.5) vs text sims (0.8, 0.2, 0.5)
        obj_s = np.array([0.9, 0.1, 0.5])
        txt_s = np.array([0.8, 0.2, 0.5])
        xc = obj_s - obj_s.mean()
        yc = txt_s - txt_s.mean()
        rho = float(xc @ yc / (np.linalg.norm(xc) * np.linalg.norm(yc)))
        assert kernels.pearson(obj_s, txt_s) == pytest.approx(rho, abs=1e-12)
        # and the loss is its negation when fed those exact similarity lists
        x = Tensor(obj_s)
        y = Tensor(txt_s)
        assert ad.neg(ad.pearson_t(x, y)).item() == pytest.approx(-rho, abs=1e-12)

    def test_degenerate_variance_neutral_zero(self, caplog):
        # two classes, all object cosines identical -> zero variance
        obj = np.array([[1.0, 0.0], [0.0, 1.0]])
        w_e = np.random.default_rng(1).normal(size=(3, 2))
        with caplog.at_level("WARNING"):
            out = self._run(obj, [0, 1], w_e, {0: [0], 1: [1]})
        assert out.item() == 0.0
        assert "skipped" in caplog.text

    def test_too_few_pairs_neutral_zero(self, caplog):
        obj = np.eye(2)
        w_e = np.random.default_rng(1).normal(size=(3, 2))
        pool = make_pool(obj, [0, 0])
        with caplog.at_level("WARNING"):
            out = perceptual(pool, sample_pairs(pool, 10, np.random.default_rng(0)),
                                  Tensor(w_e), {0: [0]})
        assert out.item() == 0.0


class TestPoolBuilding:
    def test_excludes_unk_and_zero_norm(self, caplog):
        vecs = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with caplog.at_level("WARNING"):
            pool = build_projection_pool(Tensor(vecs), np.array([0, 1, 9, 1]), unk_id=9)
        np.testing.assert_array_equal(pool.rows, [0, 3])
        np.testing.assert_array_equal(pool.class_ids, [0, 1])
        assert "zero-norm" in caplog.text


class TestTotalLoss:
    def test_disabled_heads_return_xe_node(self):
        xe = Tensor(0.7)
        out = total_loss(xe, None, None, 1.0, 1.0)
        assert out is xe

    def test_weighted_sum(self):
        out = total_loss(Tensor(0.5), Tensor(0.2), Tensor(-0.3), 1.0, 1.0)
        assert out.item() == pytest.approx(0.4, abs=1e-15)

    def test_disabling_perceptual_reproduces_cluster_variant(self):
        with_c = total_loss(Tensor(0.5), Tensor(0.2), None, 1.0, 1.0)
        assert with_c.item() == pytest.approx(0.7, abs=1e-15)

    def test_config_validation(self):
        # the loss hyperparameters are TrainConfig fields, checked by its validate
        with pytest.raises(ConfigError, match="margin"):
            TrainConfig(margin=-0.1).validate()
        with pytest.raises(ConfigError, match="sample_size"):
            TrainConfig(sample_size=0).validate()
        with pytest.raises(ConfigError, match="loss weights"):
            TrainConfig(cluster_weight=-1.0).validate()


class TestScaleInvariance:
    def test_losses_unchanged_under_positive_scaling(self, rng):
        vecs = rng.normal(size=(9, 4))
        labels = rng.integers(0, 3, size=9)
        w_e = rng.normal(size=(4, 6))
        tokens = {0: [0], 1: [1], 2: [2]}

        def both(v):
            pool = make_pool(v, labels)
            trip = sample_triplets(pool, 80, np.random.default_rng(5))
            pairs = sample_pairs(pool, 80, np.random.default_rng(6))
            lc = cluster(pool, trip, 0.5).item()
            lp = perceptual(pool, pairs, Tensor(w_e), tokens).item()
            return lc, lp

        base = both(vecs)
        scaled = both(3.7 * vecs)
        assert scaled[0] == pytest.approx(base[0], abs=1e-10)
        assert scaled[1] == pytest.approx(base[1], abs=1e-10)


class TestGroundingGradients:
    """Gradients of both grounding losses w.r.t. the projection and the
    embeddings, on a toy pool of 6 vectors and 3 classes."""

    def _setup(self, rng):
        feats = rng.normal(size=(6, 5))
        labels = np.array([0, 0, 1, 1, 2, 2])
        w_in = rng.normal(size=(4, 5)) * 0.5
        w_e = rng.normal(size=(4, 7)) * 0.5
        tokens = {0: [1], 1: [2, 3], 2: [4]}
        return feats, labels, w_in, w_e, tokens

    def test_cluster_loss_gradient_wrt_projection(self, rng, fd_grad, rel_err):
        feats, labels, w_in, w_e, _ = self._setup(rng)
        pool0 = make_pool(feats @ w_in.T, labels)
        trip = sample_triplets(pool0, 60, np.random.default_rng(0))

        w = ad.parameter(w_in)
        z = ad.linear(Tensor(feats), w)
        pool = LabeledProjection(vectors=z, rows=np.arange(6), class_ids=labels)
        grads = ad.backward(cluster(pool, trip, 0.5), {"w_in": w})

        def fn(wa):
            zz = feats @ wa.T
            p = make_pool(zz, labels)
            return cluster(p, trip, 0.5).item()

        fd = fd_grad(fn, [w_in])[0]
        assert rel_err(grads["w_in"], fd) <= FD_TOL

    def test_perceptual_loss_gradients_wrt_both(self, rng, fd_grad, rel_err):
        feats, labels, w_in, w_e, tokens = self._setup(rng)
        pool0 = make_pool(feats @ w_in.T, labels)
        pairs = sample_pairs(pool0, 60, np.random.default_rng(1))

        w = ad.parameter(w_in)
        we = ad.parameter(w_e)
        z = ad.linear(Tensor(feats), w)
        pool = LabeledProjection(vectors=z, rows=np.arange(6), class_ids=labels)
        grads = ad.backward(perceptual(pool, pairs, we, tokens), {"w_in": w, "w_e": we})

        def fn(wa, wb):
            p = make_pool(feats @ wa.T, labels)
            return perceptual(p, pairs, Tensor(wb), tokens).item()

        fd = fd_grad(fn, [w_in, w_e])
        assert rel_err(grads["w_in"], fd[0]) <= FD_TOL
        assert rel_err(grads["w_e"], fd[1]) <= FD_TOL

    def test_fixed_seed_bitwise_reproducible(self, rng):
        feats, labels, w_in, w_e, tokens = self._setup(rng)

        def run():
            pool = make_pool(feats @ w_in.T, labels)
            trip = sample_triplets(pool, 50, np.random.default_rng(11))
            pairs = sample_pairs(pool, 50, np.random.default_rng(12))
            lc = cluster(pool, trip, 0.5)
            lp = perceptual(pool, pairs, Tensor(w_e), tokens)
            return total_loss(Tensor(1.3), lc, lp, 1.0, 1.0).item()

        assert run() == run()
