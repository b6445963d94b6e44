"""Decoder building blocks, greedy decoding, checkpoints, gradient checks.

The single-example decoder (``lstm_step``, ``attend``, ``decode_step``,
``sequence_logprob``) lives in ``decode_reference`` as the oracle for the
batched ``greedy_decode`` and ``batch_forward``; its tests stay here.
"""

import gzip
import hashlib
import json
import tempfile
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import checkpoint_reference
import decode_reference
import loop_reference
import tape_reference
from decode_reference import (
    DecoderState,
    attend,
    decode_step,
    lstm_step,
    mean_pool,
    select_greedy_token,
    sequence_logprob,
)
from groundcap import autodiff as ad
from groundcap import kernels, model
from groundcap.data import (
    BOS_ID,
    EOS_ID,
    SyntheticSpec,
    float_array_json,
    generate_synthetic_dataset,
)
from groundcap.errors import (
    ContractError,
    DataValidationError,
    DomainError,
    NumericalError,
    ShapeError,
)
from groundcap.losses import (
    batch_cross_entropy,
    build_projection_pool,
    cluster_loss,
    perceptual_loss,
    sample_pairs,
    sample_triplets,
    total_loss,
)
from groundcap.model import (
    DECODE_CHUNK,
    ModelConfig,
    ModelParams,
    batch_forward,
    greedy_decode,
    load_checkpoint,
    project_features,
    save_checkpoint,
)
from groundcap.training import TrainConfig, run_experiment_matrix

FD_TOL = 1e-4


def toy_params(vocab=6, d_in=3, d=4, seed=0, att=None):
    cfg = ModelConfig(vocab_size=vocab, feature_size=d_in, hidden_size=d, att_size=att)
    return ModelParams.init(cfg, np.random.default_rng(seed))


class TestProjection:
    def test_identity(self):
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(project_features(v, np.eye(2)), v)

    def test_zero(self):
        v = np.array([[1.0, 2.0]])
        np.testing.assert_array_equal(project_features(v, np.zeros((3, 2))), np.zeros((1, 3)))

    def test_hand_value(self):
        w = np.array([[1.0, 1.0], [0.0, 2.0]])
        np.testing.assert_array_equal(project_features(np.array([[3.0, 4.0]]), w), [[7.0, 8.0]])

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            project_features(np.ones((2, 3)), np.ones((4, 2)))


class TestMeanPool:
    def test_single_vector(self):
        v = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(mean_pool(v), v[0])

    def test_opposite_vectors_cancel(self):
        u = np.array([1.0, 2.0])
        np.testing.assert_array_equal(mean_pool(np.stack([u, -u])), np.zeros(2))

    def test_hand_mean(self):
        np.testing.assert_array_equal(mean_pool(np.array([[1.0, 3.0], [3.0, 5.0]])), [2.0, 4.0])

    def test_empty_is_domain_error(self):
        with pytest.raises(DomainError):
            mean_pool(np.zeros((0, 3)))


class TestLstmStep:
    def test_all_zero_weights_give_zero_state(self):
        d, n = 3, 5
        h, c = lstm_step(
            np.ones(n), (np.zeros(d), np.zeros(d)),
            np.zeros((4 * d, n)), np.zeros((4 * d, d)), np.zeros(4 * d),
        )
        np.testing.assert_array_equal(h, np.zeros(d))
        np.testing.assert_array_equal(c, np.zeros(d))

    def test_saturated_forget_gate_preserves_cell(self, rng):
        d, n = 4, 3
        b = np.zeros(4 * d)
        b[d : 2 * d] = 20.0
        c_prev = rng.normal(size=d)
        _, c = lstm_step(
            rng.normal(size=n), (rng.normal(size=d), c_prev),
            np.zeros((4 * d, n)), np.zeros((4 * d, d)), b,
        )
        np.testing.assert_allclose(c, c_prev, atol=1e-8)

    def test_matches_scripted_reference(self, rng):
        d, n = 4, 6
        x = rng.normal(size=n)
        h_prev = rng.normal(size=d)
        c_prev = rng.normal(size=d)
        wx = rng.normal(size=(4 * d, n)) * 0.3
        wh = rng.normal(size=(4 * d, d)) * 0.3
        b = rng.normal(size=4 * d) * 0.1

        pre = wx @ x + wh @ h_prev + b
        sig = lambda t: 1.0 / (1.0 + np.exp(-t))
        i, f, o = sig(pre[:d]), sig(pre[d : 2 * d]), sig(pre[2 * d : 3 * d])
        g = np.tanh(pre[3 * d :])
        c_ref = f * c_prev + i * g
        h_ref = o * np.tanh(c_ref)

        h, c = lstm_step(x, (h_prev, c_prev), wx, wh, b)
        np.testing.assert_allclose(h, h_ref, atol=1e-12)
        np.testing.assert_allclose(c, c_ref, atol=1e-12)


class TestAttend:
    def test_single_object_returns_it(self, rng):
        d = 4
        z = rng.normal(size=(1, d))
        ct = attend(rng.normal(size=d), z, rng.normal(size=(d, 2 * d)), rng.normal(size=d))
        np.testing.assert_allclose(ct, z[0], atol=1e-12)

    def test_identical_objects_return_that_vector(self, rng):
        d = 4
        row = rng.normal(size=d)
        z = np.tile(row, (5, 1))
        ct = attend(rng.normal(size=d), z, rng.normal(size=(d, 2 * d)), rng.normal(size=d))
        np.testing.assert_allclose(ct, row, atol=1e-12)

    def test_zero_score_vector_gives_mean(self, rng):
        d = 3
        z = rng.normal(size=(4, d))
        ct = attend(rng.normal(size=d), z, rng.normal(size=(d, 2 * d)), np.zeros(d))
        np.testing.assert_allclose(ct, z.mean(axis=0), atol=1e-12)

    def test_empty_objects_is_domain_error(self, rng):
        with pytest.raises(DomainError):
            attend(np.zeros(3), np.zeros((0, 3)), np.zeros((3, 6)), np.zeros(3))


class TestDecodeStep:
    def test_distribution_sums_to_one(self, rng):
        params = toy_params(seed=3)
        z = rng.normal(size=(3, 4))
        probs, _ = decode_step(BOS_ID, DecoderState.zeros(4), z, mean_pool(z), params)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert (probs > 0).all()

    def test_zero_output_head_gives_uniform(self, rng):
        params = toy_params(seed=4)
        params.arrays["out.w"][:] = 0.0
        params.arrays["out.b"][:] = 0.0
        z = rng.normal(size=(2, 4))
        probs, _ = decode_step(BOS_ID, DecoderState.zeros(4), z, mean_pool(z), params)
        np.testing.assert_allclose(probs, np.full(6, 1 / 6), atol=1e-12)

    def test_invalid_token_id(self, rng):
        params = toy_params()
        z = rng.normal(size=(2, 4))
        with pytest.raises(DomainError):
            decode_step(99, DecoderState.zeros(4), z, mean_pool(z), params)

    def test_matches_composition_of_primitives(self, rng):
        params = toy_params(seed=5)
        a = params.arrays
        z = rng.normal(size=(3, 4))
        z_bar = mean_pool(z)
        state = DecoderState(
            rng.normal(size=4), rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)
        )
        probs, new = decode_step(2, state, z, z_bar, params)

        x = a["embedding"][:, 2]
        h1, c1 = lstm_step(
            np.concatenate([x, z_bar, state.h2]), (state.h1, state.c1),
            a["lstm1.wx"], a["lstm1.wh"], a["lstm1.b"],
        )
        ct = attend(h1, z, a["att.proj"], a["att.score"])
        h2, c2 = lstm_step(
            np.concatenate([ct, h1]), (state.h2, state.c2),
            a["lstm2.wx"], a["lstm2.wh"], a["lstm2.b"],
        )
        ref = kernels.softmax(a["out.w"] @ h2 + a["out.b"])
        np.testing.assert_allclose(probs, ref, atol=1e-12)
        np.testing.assert_allclose(new.h2, h2, atol=1e-12)

    def test_first_step_sees_objects_only_through_their_mean(self, rng):
        params = toy_params(seed=6)
        base = rng.normal(size=(2, 4))
        shifted = base + np.array([[0.5, -0.2, 0.1, 0.3], [-0.5, 0.2, -0.1, -0.3]])  # same mean
        np.testing.assert_allclose(mean_pool(base), mean_pool(shifted), atol=1e-12)
        _, s1 = decode_step(BOS_ID, DecoderState.zeros(4), base, mean_pool(base), params)
        _, s2 = decode_step(BOS_ID, DecoderState.zeros(4), shifted, mean_pool(shifted), params)
        np.testing.assert_allclose(s1.h1, s2.h1, atol=1e-12)


class TestSequenceLogprob:
    def test_total_is_sum_of_steps(self, rng):
        params = toy_params(seed=7)
        feats = rng.normal(size=(3, 3))
        lps = sequence_logprob(feats, [3, 4, EOS_ID], params)
        assert lps.shape == (3,)
        assert np.isfinite(lps).all()

    def test_deterministic_without_dropout(self, rng):
        params = toy_params(seed=8)
        feats = rng.normal(size=(2, 3))
        a = sequence_logprob(feats, [3, EOS_ID], params)
        b = sequence_logprob(feats, [3, EOS_ID], params)
        np.testing.assert_array_equal(a, b)

    def test_dropout_requires_rng(self, rng):
        params = toy_params()
        with pytest.raises(DomainError):
            sequence_logprob(rng.normal(size=(2, 3)), [3], params, dropout_rate=0.2)

    def test_matches_hand_rolled_oracle(self, rng):
        # d=4, |V|=6 toy model recomputed with explicit formulas
        params = toy_params(vocab=6, d_in=3, d=4, seed=9)
        a = params.arrays
        feats = rng.normal(size=(2, 3))
        tokens = [4, 3, 5, EOS_ID]

        sig = lambda t: 1.0 / (1.0 + np.exp(-t))

        def cell(x, h, c, wx, wh, b):
            pre = wx @ x + wh @ h + b
            d = h.shape[0]
            i, f, o = sig(pre[:d]), sig(pre[d : 2 * d]), sig(pre[2 * d : 3 * d])
            g = np.tanh(pre[3 * d :])
            c2 = f * c + i * g
            return o * np.tanh(c2), c2

        z = feats @ a["input_proj"].T
        zb = z.mean(axis=0)
        h1 = c1 = h2 = c2 = np.zeros(4)
        y_prev = BOS_ID
        expected = []
        for tok in tokens:
            x = a["embedding"][:, y_prev]
            h1, c1 = cell(np.concatenate([x, zb, h2]), h1, c1, a["lstm1.wx"], a["lstm1.wh"], a["lstm1.b"])
            u = np.tanh(a["att.proj"][:, :4] @ h1 + z @ a["att.proj"][:, 4:].T)
            e = u @ a["att.score"]
            alpha = np.exp(e - e.max())
            alpha = alpha / alpha.sum()
            ct = alpha @ z
            h2, c2 = cell(np.concatenate([ct, h1]), h2, c2, a["lstm2.wx"], a["lstm2.wh"], a["lstm2.b"])
            logits = a["out.w"] @ h2 + a["out.b"]
            expected.append(logits[tok] - np.log(np.exp(logits - logits.max()).sum()) - logits.max())
            y_prev = tok

        got = sequence_logprob(feats, tokens, params)
        np.testing.assert_allclose(got, np.array(expected), atol=1e-10)


class TestGreedyDecode:
    def test_rigged_eos_gives_empty_caption(self, rng):
        params = toy_params(seed=10)
        params.arrays["out.w"][:] = 0.0
        params.arrays["out.b"][:] = 0.0
        params.arrays["out.b"][EOS_ID] = 5.0
        assert greedy_decode([rng.normal(size=(2, 4))], params, max_len=16) == [[]]

    def test_no_eos_hits_length_cap(self, rng):
        params = toy_params(seed=11)
        params.arrays["out.w"][:] = 0.0
        params.arrays["out.b"][:] = 0.0
        params.arrays["out.b"][3] = 5.0
        out = greedy_decode([rng.normal(size=(2, 4))], params, max_len=16)
        assert out == [[3] * 16]

    def test_matches_manual_argmax_trace(self, rng):
        params = toy_params(seed=12)
        z = project_features(rng.normal(size=(3, 3)), params.arrays["input_proj"])
        z_bar = mean_pool(z)
        state = DecoderState.zeros(4)
        y = BOS_ID
        expected = []
        for _ in range(16):
            probs, state = decode_step(y, state, z, z_bar, params)
            y = int(np.argmax(probs))
            if y == EOS_ID:
                break
            expected.append(y)
        assert greedy_decode([z], params, max_len=16) == [expected]

    def test_argmax_invariant_under_monotone_transform(self, rng):
        logits = rng.normal(size=12)
        base = select_greedy_token(logits)
        assert select_greedy_token(3.0 * logits + 7.0) == base
        assert select_greedy_token(np.exp(logits)) == base
        assert select_greedy_token(kernels.softmax(logits)) == base

    def test_tie_breaks_to_lowest_id(self):
        assert select_greedy_token(np.array([0.2, 0.4, 0.4])) == 1


def decoder_params(seed: int, vocab: int, d: int, d_in: int, scale: float) -> ModelParams:
    """Toy params scaled up from the init range, so that captions vary in
    length and content instead of sitting near a uniform distribution."""
    params = toy_params(vocab=vocab, d_in=d_in, d=d, seed=seed)
    for arr in params.arrays.values():
        arr *= scale
    return params


def split_objects(seed: int, counts: list[int], params: ModelParams) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    w_in = params.arrays["input_proj"]
    return [project_features(rng.normal(size=(k, w_in.shape[1])), w_in) for k in counts]


def assert_matches_reference(zs, params, max_len=16):
    got = greedy_decode(zs, params, max_len)
    assert got == decode_reference.greedy_decode(zs, params, max_len)
    return got


class TestBatchedGreedyDecode:
    """The batched decoder against the per-image oracle in decode_reference."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        vocab=st.integers(4, 12),
        d=st.integers(2, 6),
        d_in=st.integers(1, 4),
        scale=st.floats(1.0, 40.0),
        counts=st.lists(st.integers(1, 6), min_size=1, max_size=12),
        max_len=st.integers(1, 8),
    )
    def test_mixed_object_counts_match_reference(self, seed, vocab, d, d_in, scale, counts, max_len):
        params = decoder_params(seed, vocab, d, d_in, scale)
        assert_matches_reference(split_objects(seed, counts, params), params, max_len)

    @pytest.mark.parametrize("batch", [1, 2, DECODE_CHUNK + 1])
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1.0, 40.0))
    def test_batch_sizes_across_the_chunk_boundary(self, batch, seed, scale):
        params = decoder_params(seed, vocab=9, d=5, d_in=3, scale=scale)
        counts = np.random.default_rng(seed).integers(1, 7, size=batch).tolist()
        got = assert_matches_reference(split_objects(seed, counts, params), params)
        assert len(got) == batch

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1.0, 10.0))
    def test_random_biases_match_reference(self, seed, scale):
        # init biases are zero but for the forget gates; these exercise every
        # bias term, including LSTM1's, which the decoder adds once per chunk
        params = decoder_params(seed, vocab=9, d=5, d_in=3, scale=scale)
        rng = np.random.default_rng(seed)
        for name in ("lstm1.b", "lstm2.b", "out.b"):
            params.arrays[name] = scale * rng.normal(size=params.arrays[name].shape)
        assert_matches_reference(split_objects(seed, [1, 2, 3, 4, 5, 6] * 5, params), params)

    def test_captions_end_at_different_steps(self):
        # Rows leave the batch at different steps and the cap holds for the rest.
        params = decoder_params(3, vocab=8, d=4, d_in=3, scale=25.0)
        got = assert_matches_reference(split_objects(4, [1, 2, 3, 4, 5, 6] * 10, params), params)
        assert len({len(c) for c in got}) > 2

    def test_rigged_eos_gives_empty_captions(self):
        params = decoder_params(5, vocab=7, d=4, d_in=3, scale=1.0)
        params.arrays["out.w"][:] = 0.0
        params.arrays["out.b"][:] = 0.0
        params.arrays["out.b"][EOS_ID] = 5.0
        zs = split_objects(6, [1, 3, 6], params)
        assert assert_matches_reference(zs, params) == [[], [], []]

    @pytest.mark.parametrize("max_len", [1, 5, 16])
    def test_no_eos_stops_at_max_len(self, max_len):
        params = decoder_params(7, vocab=7, d=4, d_in=3, scale=1.0)
        params.arrays["out.w"][:] = 0.0
        params.arrays["out.b"][:] = 0.0
        params.arrays["out.b"][4] = 5.0
        zs = split_objects(8, [2, 5], params)
        assert assert_matches_reference(zs, params, max_len) == [[4] * max_len] * 2

    def test_exact_logit_ties_pick_lowest_id(self):
        params = decoder_params(9, vocab=8, d=4, d_in=3, scale=1.0)
        params.arrays["out.w"][:] = 0.0
        params.arrays["out.b"][:] = 0.0
        params.arrays["out.b"][[6, 3, 5]] = 2.0
        zs = split_objects(10, [1, 4], params)
        assert assert_matches_reference(zs, params, max_len=3) == [[3, 3, 3]] * 2
        params.arrays["out.b"][EOS_ID] = 2.0  # EOS ties with them and is the lowest id
        assert assert_matches_reference(zs, params, max_len=3) == [[], []]

    def test_empty_split_gives_no_captions(self):
        assert greedy_decode([], toy_params(), max_len=16) == []

    def test_image_without_objects_is_domain_error(self):
        params = toy_params()
        zs = [np.ones((2, 4)), np.zeros((0, 4))]
        with pytest.raises(DomainError):
            greedy_decode(zs, params, max_len=16)

    @pytest.mark.parametrize("max_len", [0, -1])
    def test_max_len_below_one_is_domain_error(self, max_len):
        with pytest.raises(DomainError):
            greedy_decode([np.ones((2, 4))], toy_params(), max_len)


# object values of mixed magnitudes, signed zeros among them
_OBJECT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e3, 1e3),
    st.floats(-1e-300, 1e-300),
    st.floats(-1e300, 1e300),
)


class TestPaddedObjects:
    """A chunk's padded block and masked mean rows against the per-image
    ``mean_pool`` oracle, by bytes."""

    @staticmethod
    def assert_matches_mean_pool(zs):
        counts = np.array([len(z) for z in zs])
        z_pad, valid, z_bar = model._padded_objects(zs, counts)
        assert z_bar.tobytes() == np.stack([mean_pool(z) for z in zs]).tobytes()
        assert valid.sum(axis=1).tolist() == counts.tolist()
        for row, z in enumerate(zs):
            assert z_pad[row, : len(z)].tobytes() == z.tobytes()
            assert valid[row, : len(z)].all() and not z_pad[row, len(z):].any()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), counts=st.lists(st.integers(1, 36), min_size=1, max_size=8),
           d=st.integers(1, 4))
    def test_mean_rows_equal_mean_pool(self, data, counts, d):
        zs = [data.draw(hnp.arrays(np.float64, (k, d), elements=_OBJECT_VALUES)) for k in counts]
        self.assert_matches_mean_pool(zs)

    @pytest.mark.parametrize("counts", [[1], [1] * 7, [36], [36, 1, 2], [1, 36]])
    def test_one_and_thirty_six_objects(self, rng, counts):
        scales = 10.0 ** rng.integers(-300, 300, size=(sum(counts), 1))
        rows = np.split(rng.normal(size=(sum(counts), 3)) * scales, np.cumsum(counts)[:-1])
        self.assert_matches_mean_pool(rows)

    def test_negative_zeros(self):
        # a mean of -0.0 rows is +0.0, as the reduction starts from +0.0
        self.assert_matches_mean_pool([np.full((2, 3), -0.0), np.array([[-0.0, 1.0, -0.0]])])
        _, _, z_bar = model._padded_objects([np.full((1, 2), -0.0)], np.array([1]))
        assert not np.signbit(z_bar).any()

    def test_order_of_addition(self):
        # (1e16 + 1) - 1e16 is 0 left to right, 1 in another order
        self.assert_matches_mean_pool([np.array([[1e16], [1.0], [-1e16], [1.0]]), np.ones((1, 1))])


class TestPermutationInvariance:
    def test_object_order_does_not_matter(self, rng):
        params = toy_params(seed=13)
        feats = rng.normal(size=(4, 3))
        perm = feats[[2, 0, 3, 1]]
        z, zp = (project_features(f, params.arrays["input_proj"]) for f in (feats, perm))
        np.testing.assert_allclose(mean_pool(z), mean_pool(zp), atol=1e-12)
        h1 = rng.normal(size=4)
        ct = attend(h1, z, params.arrays["att.proj"], params.arrays["att.score"])
        ctp = attend(h1, zp, params.arrays["att.proj"], params.arrays["att.score"])
        np.testing.assert_allclose(ct, ctp, atol=1e-12)
        lps = sequence_logprob(feats, [3, EOS_ID], params)
        lps_p = sequence_logprob(perm, [3, EOS_ID], params)
        np.testing.assert_allclose(lps, lps_p, atol=1e-12)


class TestBatchForward:
    def test_matches_per_example_path(self, rng):
        params = toy_params(seed=14)
        feats = [rng.normal(size=(k, 3)) for k in (2, 4, 1)]
        tokens = [[3, EOS_ID], [4, 5, EOS_ID], [EOS_ID]]
        per_example, _ = batch_forward(
            tape_reference.constants(params), params.config, feats, [0, 1, 2], tokens
        )
        for e in range(3):
            expected = sequence_logprob(feats[e], tokens[e], params).mean()
            assert per_example.data[e] == pytest.approx(expected, abs=1e-12)

    def test_shared_image_projection(self, rng):
        params = toy_params(seed=15)
        feats = [rng.normal(size=(3, 3))]
        tokens = [[3, EOS_ID], [4, EOS_ID]]  # two captions of one image
        _, z_flat = batch_forward(
            tape_reference.constants(params), params.config, feats, [0, 0], tokens
        )
        assert z_flat.data.shape == (3, 4)

    def test_full_gradient_check_small_dims(self, rng, fd_grad, rel_err):
        cfg = ModelConfig(vocab_size=6, feature_size=3, hidden_size=4)
        params = ModelParams.init(cfg, np.random.default_rng(16))
        feats = [rng.normal(size=(2, 3)), rng.normal(size=(3, 3))]
        tokens = [[3, 4, EOS_ID], [5, EOS_ID]]

        def loss_from(arrays: dict) -> float:
            p = ModelParams(config=cfg, arrays=arrays)
            per_example, _ = batch_forward(tape_reference.constants(p), cfg, feats, [0, 1], tokens)
            return float(-per_example.data.mean())

        tensors = params.tensors()
        per_example, _ = batch_forward(tensors, cfg, feats, [0, 1], tokens)
        nll = ad.neg(ad.mean_(per_example))
        grads = ad.backward(nll, tensors)

        for name in params.arrays:
            arr = params.arrays[name]

            def fn(block, _name=name):
                merged = {k: (block if k == _name else v) for k, v in params.arrays.items()}
                return loss_from(merged)

            fd = fd_grad(fn, [arr])[0]
            assert rel_err(grads[name], fd) <= FD_TOL, name


def run_batch_forward(forward, params, feats, image_of_example, tokens, rate, seed, probe=None):
    """Loss value, per-parameter gradients and the dropout generator's state
    after one teacher-forced pass; ``probe`` adds a grounding-like head that
    reads the projected object rows, the second path into ``input_proj``."""
    rng = np.random.default_rng(seed)
    p = params.tensors()
    per_example, z_flat = forward(p, params.config, feats, image_of_example, tokens, rate, rng)
    loss = ad.neg(ad.mean_(per_example))
    if probe is not None:
        loss = ad.add(loss, ad.mean_(ad.mul(z_flat, ad.Tensor(probe))))
    grads = ad.backward(loss, p)
    return per_example.data, grads, rng.bit_generator.state


def assert_close_relative(got, want, tol=1e-12):
    """Agreement to ``tol`` relative to the largest entry of ``want``."""
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


class TestFusedTeacherForcedOp:
    """``batch_forward``'s one-node decoder against the step-by-step tape."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        counts=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        captions=st.lists(
            st.tuples(st.integers(0, 2), st.lists(st.integers(0, 6), min_size=1, max_size=5)),
            min_size=1,
            max_size=5,
        ),
        rate=st.sampled_from([0.0, 0.2]),
    )
    @example(seed=1, counts=[1], captions=[(0, [3])], rate=0.2)
    @example(  # one image shared by three captions of lengths 1 to T, next to a 1-object image
        seed=2, counts=[4, 1], captions=[(0, [5]), (1, [3, 4, 1]), (0, [6, 6, 2, 4, 1]), (0, [1])],
        rate=0.2,
    )
    def test_matches_step_by_step_tape(self, seed, counts, captions, rate):
        params = decoder_params(seed % 1000, vocab=7, d=3, d_in=2, scale=6.0)
        rng = np.random.default_rng(seed)
        feats = [rng.normal(size=(k, 2)) for k in counts]
        image_of_example = [img % len(counts) for img, _ in captions]
        tokens = [seq for _, seq in captions]
        probe = rng.normal(size=(sum(counts), 3))
        got, got_grads, got_state = run_batch_forward(
            batch_forward, params, feats, image_of_example, tokens, rate, seed, probe
        )
        want, want_grads, want_state = run_batch_forward(
            tape_reference.batch_forward, params, feats, image_of_example, tokens, rate, seed,
            probe,
        )
        assert_close_relative(got, want)
        assert got_state == want_state
        assert set(got_grads) == set(want_grads)
        for name, grad in want_grads.items():
            assert_close_relative(got_grads[name], grad)

    def test_train_shapes_match_step_by_step_tape(self):
        # train-sized widths, a batch of captions with up to 10 objects each
        params = decoder_params(5, vocab=20, d=16, d_in=8, scale=3.0)
        rng = np.random.default_rng(5)
        counts = rng.integers(2, 11, size=12)
        feats = [rng.normal(size=(k, 8)) for k in counts]
        image_of_example = list(rng.integers(0, 12, size=30))
        tokens = [list(rng.integers(3, 20, size=rng.integers(1, 8))) + [EOS_ID] for _ in range(30)]
        got, got_grads, got_state = run_batch_forward(
            batch_forward, params, feats, image_of_example, tokens, 0.2, 6
        )
        want, want_grads, want_state = run_batch_forward(
            tape_reference.batch_forward, params, feats, image_of_example, tokens, 0.2, 6
        )
        assert_close_relative(got, want)
        assert got_state == want_state
        for name, grad in want_grads.items():
            assert_close_relative(got_grads[name], grad)

    def test_row_scatters_match_add_at_bytes(self, monkeypatch):
        # the backward's two row scatters (embedding rows, object rows)
        # against np.add.at: one image feeds four captions, images share
        # captions, and a few token ids repeat within and across captions
        params = decoder_params(5, vocab=20, d=16, d_in=8, scale=3.0)
        rng = np.random.default_rng(11)
        feats = [rng.normal(size=(k, 8)) for k in (10, 2, 7, 1, 10, 4)]
        image_of_example = [0, 0, 2, 0, 1, 2, 3, 4, 5, 5, 0]
        tokens = [
            list(rng.integers(3, 7, size=rng.integers(1, 9))) + [EOS_ID] for _ in image_of_example
        ]
        probe = rng.normal(size=(sum(len(f) for f in feats), 16))
        got, got_grads, _ = run_batch_forward(
            batch_forward, params, feats, image_of_example, tokens, 0.2, 6, probe
        )
        monkeypatch.setattr(kernels, "scatter_rows", loop_reference.scatter_rows)
        want, want_grads, _ = run_batch_forward(
            batch_forward, params, feats, image_of_example, tokens, 0.2, 6, probe
        )
        assert got.tobytes() == want.tobytes()
        for name, grad in want_grads.items():
            assert got_grads[name].flags.c_contiguous, name
            assert got_grads[name].tobytes() == grad.tobytes(), name

    def test_gradient_check_with_dropout_and_grounding_head(self, rng, fd_grad, rel_err):
        params = decoder_params(17, vocab=6, d=3, d_in=2, scale=4.0)
        feats = [rng.normal(size=(1, 2)), rng.normal(size=(3, 2))]
        image_of_example = [1, 0, 1]
        tokens = [[3, 4, EOS_ID], [5], [4, EOS_ID]]
        probe = rng.normal(size=(4, 3))
        _, grads, _ = run_batch_forward(
            batch_forward, params, feats, image_of_example, tokens, 0.2, 8, probe
        )

        def loss_from(arrays: dict) -> float:
            p = ModelParams(config=params.config, arrays=arrays)
            per_example, z_flat = batch_forward(
                tape_reference.constants(p), p.config, feats, image_of_example, tokens,
                0.2, np.random.default_rng(8),
            )
            return float(-per_example.data.mean() + (z_flat.data * probe).mean())

        for name, arr in params.arrays.items():

            def fn(block, _name=name):
                return loss_from({k: (block if k == _name else v) for k, v in params.arrays.items()})

            assert rel_err(grads[name], fd_grad(fn, [arr])[0]) <= FD_TOL, name

    @pytest.mark.parametrize("bad_id", [-1, 6, 99])
    @pytest.mark.parametrize("position", [0, 1])
    def test_out_of_range_token_is_domain_error(self, rng, bad_id, position):
        params = toy_params(vocab=6)
        tokens = [[3, 4]]
        tokens[0][position] = bad_id
        with pytest.raises(DomainError, match="out of range"):
            batch_forward(
                tape_reference.constants(params), params.config, [rng.normal(size=(2, 3))], [0], tokens
            )


def grounded_step_graph(params: ModelParams, seed: int, rate: float = 0.2):
    """The graph of one grounded training step on toy data, built as
    ``training._train_step`` builds it: the fused decoder with dropout at
    ``rate``, then cross-entropy, cluster and perceptual losses over the
    batch's object pool, whose cosines come from one ``pair_cosines`` op.
    Returns the parameters, the total loss and the decoder's per-example
    log-probabilities."""
    rng = np.random.default_rng(seed)
    counts = (3, 2, 4)
    feats = [rng.normal(size=(k, params.config.feature_size)) for k in counts]
    labels = [np.array([0, 1, 2]), np.array([2, 0]), np.array([1, 1, 0, 3])]  # 3 is UNK
    p = params.tensors()
    per_example, z_flat = batch_forward(
        p, params.config, feats, [0, 1, 2, 0, 2],
        [[3, 4, EOS_ID], [5, 3], [6, EOS_ID], [4], [3, 6, 5, EOS_ID]],
        rate, np.random.default_rng(seed + 1),
    )
    pool = build_projection_pool(z_flat, np.concatenate(labels), unk_id=3)
    anchors, positives, negatives = sample_triplets(pool, 20, np.random.default_rng(seed + 2))
    pairs = sample_pairs(pool, 20, np.random.default_rng(seed + 3))
    cos_ap, cos_an, sim_obj = pool.cosines([(anchors, positives), (anchors, negatives), pairs])
    l_c = cluster_loss(cos_ap, cos_an, 0.5)
    l_p = perceptual_loss(pool, pairs, sim_obj, p["embedding"], {0: [3], 1: [4, 5], 2: [6]})
    total = total_loss(batch_cross_entropy(per_example), l_c, l_p, 1.0, 1.0)
    return p, total, per_example


class TestBackwardFreesTheGraph:
    """``autodiff.backward`` drops each node's gradient, closure and parent
    links once the node's backward has run, and hands the parameter
    gradients over; the values are those of the sweep that keeps the graph."""

    PARAMS = decoder_params(3, vocab=7, d=4, d_in=3, scale=2.0)

    def test_every_node_is_cleared(self):
        p, total, _ = grounded_step_graph(self.PARAMS, 5)
        nodes = ad._toposort(total)
        leaves = {id(t) for t in p.values()}
        inner = [t for t in nodes if id(t) not in leaves]
        assert len(inner) >= 10
        ad.backward(total, p)
        for tensor in inner:
            assert (tensor.grad, tensor._bwd, tensor._parents) == (None, None, ())
        assert all(t.grad is None for t in p.values())

    def test_gradients_equal_the_sweep_that_keeps_the_graph(self, monkeypatch):
        # the oracle's graph keeps the pool's cosine matrix and a node per pick list
        for rate in (0.0, 0.2):
            p, total, _ = grounded_step_graph(self.PARAMS, 5, rate)
            got = ad.backward(total, p)
            with monkeypatch.context() as patch:
                patch.setattr(ad, "pair_cosines", tape_reference.pair_cosines)
                p, total, _ = grounded_step_graph(self.PARAMS, 5, rate)
            want = tape_reference.retaining_backward(total, p)
            assert list(got) == list(want)
            for name, grad in want.items():
                assert got[name].tobytes() == grad.tobytes(), (rate, name)

    @staticmethod
    def _on_entry(tensor, probe):
        """Run ``probe()`` when ``tensor``'s backward starts."""
        bwd = tensor._bwd

        def probed(g):
            probe()
            return bwd(g)

        tensor._bwd = probed

    def test_pool_matrix_is_freed_before_the_fused_backward(self, monkeypatch):
        matrices = []

        def kept_cosines(*args):
            out = pair_cosines_forward(*args)
            matrices.append(weakref.ref(out))
            return out

        pair_cosines_forward = kernels.pair_cosines_forward
        monkeypatch.setattr(kernels, "pair_cosines_forward", kept_cosines)
        p, total, per_example = grounded_step_graph(self.PARAMS, 5)
        pool_matrix = matrices[0]  # the word-side matrix comes second
        seen = []
        self._on_entry(per_example, lambda: seen.append(pool_matrix()))
        ad.backward(total, p)
        assert seen == [None]

    def test_fused_backward_frees_its_caches_before_it_returns(self, monkeypatch):
        p, total, per_example = grounded_step_graph(self.PARAMS, 5)
        bwd = per_example._bwd
        kept = dict(zip(bwd.__code__.co_freevars, (cell.cell_contents for cell in bwd.__closure__)))
        names = ("us", "rec", "x", "in2", "gates1", "gates2", "cells1")
        refs = {name: weakref.ref(kept[name]) for name in names}
        del bwd, kept
        inside = []
        self._on_entry(per_example, lambda: inside.append(True))
        alive_at_scatter = []

        def scatter_rows(*args):
            if inside:  # only the fused backward's scatters count
                alive_at_scatter.append([name for name, ref in refs.items() if ref() is not None])
            return kernels_scatter_rows(*args)

        kernels_scatter_rows = kernels.scatter_rows
        monkeypatch.setattr(kernels, "scatter_rows", scatter_rows)
        ad.backward(total, p)
        # the embedding rows' scatter, the fused backward's first, sees them gone
        assert alive_at_scatter and alive_at_scatter[0] == []

    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_dropout_masks_are_booleans(self, rate):
        _, _, per_example = grounded_step_graph(self.PARAMS, 5, rate)
        bwd = per_example._bwd
        drop = bwd.__closure__[bwd.__code__.co_freevars.index("drop")].cell_contents
        assert drop.dtype == np.bool_
        assert drop.all() == (rate == 0.0)
        # each factor has the bits of the float mask (keep) / (1 - rate)
        for r in (rate, 0.1, 0.3, 0.5, 0.7):
            assert (drop * (True / (1 - r))).tobytes() == (drop / (1.0 - r)).tobytes()

    def test_fused_op_caches_die_with_its_backward(self):
        p, total, per_example = grounded_step_graph(self.PARAMS, 5)
        bwd = per_example._bwd
        kept = dict(zip(bwd.__code__.co_freevars, (cell.cell_contents for cell in bwd.__closure__)))
        assert "zz" not in kept  # backward reads only its shape, from us
        names = ("logp", "us", "alphas", "cells1", "in2", "gates1", "gates2")
        refs = [weakref.ref(kept[name]) for name in names]
        refs += [weakref.ref(kept["tanh_c1"][0]), weakref.ref(kept["tanh_c2"][-1])]
        del bwd, kept
        assert all(ref() is not None for ref in refs)
        ad.backward(total, p)
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_a_spent_graph_cannot_be_backpropagated_again(self):
        p, total, per_example = grounded_step_graph(self.PARAMS, 5)
        ad.backward(total, p)
        with pytest.raises(ContractError, match="already backpropagated"):
            ad.backward(total, p)
        # a new loss on a spent node of the graph
        with pytest.raises(ContractError, match="already backpropagated"):
            ad.backward(ad.mean_(per_example), p)


class TestKernelBoundary:
    """Training and decoding reach attention and the output layer's
    softmaxes through ``kernels`` attributes, so a wrapper patched onto the
    module sees every call."""

    NAMES = ("attention_forward", "attention_backward", "log_softmax", "softmax")

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys(self.NAMES, 0)
        for name in self.NAMES:
            def counted(*args, _name=name, _kernel=getattr(kernels, name), **kwargs):
                counts[_name] += 1
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(kernels, name, counted)
        return counts

    def test_batch_forward_and_backward_attend_once_per_step(self, calls):
        params = decoder_params(5, vocab=20, d=6, d_in=4, scale=3.0)
        rng = np.random.default_rng(2)
        feats = [rng.normal(size=(k, 4)) for k in (3, 1, 5)]
        tokens = [[3, 4, EOS_ID], [5, 6, 7, 8, EOS_ID], [9]]  # 5 steps
        run_batch_forward(batch_forward, params, feats, [0, 1, 2], tokens, 0.2, 3)
        assert calls == {
            "attention_forward": 5, "attention_backward": 5, "log_softmax": 1, "softmax": 0
        }

    def test_greedy_decode_attends_and_softmaxes_once_per_step(self, calls):
        params = decoder_params(3, vocab=8, d=4, d_in=3, scale=25.0)
        captions = greedy_decode(split_objects(4, [1, 2, 3, 4, 5, 6] * 3, params), params, 16)
        steps = max(min(len(caption) + 1, 16) for caption in captions)  # + 1: the EOS step
        assert len({len(caption) for caption in captions}) > 2
        assert calls == {
            "attention_forward": steps, "attention_backward": 0, "log_softmax": 0,
            "softmax": steps,
        }


FIXTURE_CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "fixture" / "checkpoint_best.json.gz"


def _neighbours(x):
    return [float(np.nextafter(x, 0.0)), x, float(np.nextafter(x, np.inf))]


# Shortest-digit floats of every form that repr writes: magnitudes from 1e-320
# to 1e300 of both signs, subnormals, signed zeros, integral floats and the
# values on both sides of 1e-4 and 1e16, where repr switches to exponent form.
CHECKPOINT_FLOATS = st.one_of(
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]),
              st.floats(-320, 300)),
    st.integers(-(2**62), 2**62).map(float),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     *[sign * v for sign in (1.0, -1.0) for x in (1e-4, 1e16)
                       for v in _neighbours(x)]]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestCheckpoint:
    def test_fixture_loads_to_the_arrays_json_reads(self, tmp_path):
        path = tmp_path / "checkpoint_best.json"
        path.write_bytes(gzip.decompress(FIXTURE_CHECKPOINT.read_bytes()))
        oracle = json.loads(path.read_text())["params"]
        params, _ = load_checkpoint(path)
        assert sorted(params.arrays) == sorted(oracle)
        for name, entry in oracle.items():
            want = np.array(entry["data"])
            assert params.arrays[name].ravel().tobytes() == want.tobytes(), name

    def test_roundtrip(self, tmp_path, rng):
        params = toy_params(seed=17)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path, extra={"epoch": 3})
        loaded, extra = load_checkpoint(path)
        assert extra == {"epoch": 3}
        assert loaded.config == params.config
        for name, arr in params.arrays.items():
            np.testing.assert_array_equal(loaded.arrays[name], arr)

    def test_shape_validation(self, tmp_path):
        params = toy_params(seed=18)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        payload = json.loads(path.read_text())
        payload["params"]["out.b"]["data"] = payload["params"]["out.b"]["data"][:-1]
        payload["params"]["out.b"]["shape"] = [5]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataValidationError):
            load_checkpoint(path)

    def test_encoding_is_plain_sorted_json(self, tmp_path):
        params = toy_params(seed=19)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path, extra={"epoch": 2})
        cfg = params.config
        expected = {
            "format_version": 1,
            "model": {
                "vocab_size": cfg.vocab_size,
                "feature_size": cfg.feature_size,
                "hidden_size": cfg.hidden_size,
                "att_size": cfg.att_size,
            },
            "params": {
                name: {"shape": list(arr.shape), "data": [float(x) for x in arr.ravel()]}
                for name, arr in params.arrays.items()
            },
            "extra": {"epoch": 2},
        }
        assert path.read_bytes() == json.dumps(expected, sort_keys=True).encode()

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.json"
        save_checkpoint(toy_params(seed=20), path)
        before = path.read_bytes()
        # Files are written as text (Path.write_text) or, like checkpoints, as
        # bytes (Path.write_bytes): tear both writers.
        writers = {"write_text": Path.write_text, "write_bytes": Path.write_bytes}

        def tear(names=None):
            """A write to a file named in ``names`` (to any file when None)
            writes half its data and raises."""
            for attr, write in writers.items():
                def torn_write(self, data, *args, write=write, **kwargs):
                    if names is not None and self.name not in names:
                        return write(self, data, *args, **kwargs)
                    write(self, data[: len(data) // 2], *args, **kwargs)
                    raise OSError("disk full")

                monkeypatch.setattr(Path, attr, torn_write)

        tear()
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(toy_params(seed=21), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

        # Every file of a matrix run: a rerun tears the write of one of them,
        # which must keep its previous bytes and leave no partial file. A file
        # written around both writers raises nothing and fails here too.
        dataset = generate_synthetic_dataset(
            SyntheticSpec(num_classes=3, spread=0.2, images=30, feature_size=12,
                          objects_min=2, objects_max=3),
            seed=77,
        )
        config = TrainConfig(hidden_size=8, min_count=1, batch_size=8, sample_size=10,
                             max_epochs=1)
        out = tmp_path / "matrix"
        run_experiment_matrix(config, dataset, seeds=[5], out_dir=out, neighbor_k=1)
        names = {p.name for p in out.rglob("*") if p.is_file()}
        assert names == {
            "config.json", "convergence.csv", "checkpoint_best.json", "metrics.json",
            "analysis.json", "vectors.jsonl", "matrix_metrics.json",
            "matrix_analysis.json", "matrix_runs.json",
        }
        for name in sorted(names):
            # baseline is the first variant the matrix trains
            path = out / name if name.startswith("matrix_") else out / "baseline_seed5" / name
            before = path.read_bytes()
            tear({name, name + ".partial"})
            with pytest.raises(OSError, match="disk full"):
                run_experiment_matrix(
                    replace(config, hidden_size=6), dataset, seeds=[5], out_dir=out,
                    neighbor_k=1,
                )
            monkeypatch.undo()
            assert path.read_bytes() == before, name
            assert not list(out.rglob("*.partial")), name

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_raises_before_writing(self, tmp_path, bad):
        path = tmp_path / "ckpt.json"
        save_checkpoint(toy_params(seed=22), path)
        before = path.read_bytes()
        params = toy_params(seed=23)
        params.arrays["lstm2.wh"][1, 2] = bad
        with pytest.raises(NumericalError, match="parameter lstm2.wh has non-finite entries"):
            save_checkpoint(params, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    def test_fixture_saves_to_its_own_bytes(self, tmp_path):
        raw = gzip.decompress(FIXTURE_CHECKPOINT.read_bytes())
        recorded = json.loads((FIXTURE_CHECKPOINT.parent / "fixture.json").read_text())
        assert hashlib.sha256(raw).hexdigest() == recorded["checkpoint_sha256"]
        path = tmp_path / "checkpoint_best.json"
        path.write_bytes(raw)
        params, extra = load_checkpoint(path)
        save_checkpoint(params, tmp_path / "again.json", extra=extra)
        assert (tmp_path / "again.json").read_bytes() == raw

    @staticmethod
    def assert_bytes_of_reference(arrays, extra=None):
        """``save_checkpoint`` writes what ``checkpoint_reference`` writes."""
        params = ModelParams(config=ModelConfig(vocab_size=5, feature_size=3, hidden_size=2),
                             arrays=arrays)
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp) / "new.json", Path(tmp) / "old.json"
            save_checkpoint(params, new, extra=extra)
            checkpoint_reference.save_checkpoint(params, old, extra=extra)
            assert new.read_bytes() == old.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(
        arrays=st.dictionaries(
            st.sampled_from(sorted(model.param_shapes(ModelConfig(5, 3, 2)))),
            hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                                    max_side=4), elements=CHECKPOINT_FLOATS),
            min_size=1, max_size=3,
        ),
        extra=st.sampled_from([None, {"epoch": 2, "val_cider": 1e-05}]),
    )
    # float_array_json scans for exponent-form values only when orjson's bytes
    # hold an "e" or "0.0000": such values written without "e", with "e", and
    # "0.0000" with no such value
    @example(arrays={"embedding": np.array([0.5, 1.5e-05]), "out.b": np.array([-3e-05])},
             extra=None)
    @example(arrays={"embedding": np.array([2.0, 1.5e16]), "out.b": np.array([5e-324])},
             extra=None)
    @example(arrays={"embedding": np.array([100.00001])}, extra=None)
    def test_bytes_equal_json_dumps(self, arrays, extra):
        self.assert_bytes_of_reference(arrays, extra)

    def test_magnitude_sweep_equals_json_dumps(self):
        sweep = 10.0 ** np.linspace(-320, 300, 6201)
        edges = np.array([5e-324, 2.0**60, 1e22, np.finfo(np.float64).max,
                          *[np.nextafter(x, to) for x in (1e-4, 1e16) for to in (0.0, x, np.inf)]])
        values = np.concatenate([sweep, edges, np.round(sweep[sweep < 1e18]), [0.0]])
        values = np.concatenate([values, -values])
        self.assert_bytes_of_reference({"a": values, "b": values.reshape(2, -1, 1)})

    def test_array_of_exponent_forms_only(self):
        rng = np.random.default_rng(31)
        magnitude = np.concatenate([10.0 ** rng.uniform(-320, -4.0001, 5000),
                                    10.0 ** rng.uniform(16.0001, 300, 5000)])
        values = rng.choice([-1.0, 1.0], magnitude.size) * rng.permutation(magnitude)
        assert all("e" in repr(x) for x in values.tolist())
        assert float_array_json(values) == json.dumps(values.tolist()).encode()

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataValidationError):
            load_checkpoint(path)

    def test_forget_gate_bias_initialised(self):
        params = toy_params()
        d = params.config.hidden_size
        assert (params.arrays["lstm1.b"][d : 2 * d] == 1.0).all()
        assert (params.arrays["lstm1.b"][:d] == 0.0).all()
