"""Decoder building blocks, greedy decoding, checkpoints, gradient checks.

The single-example decoder (``lstm_step``, ``attend``, ``decode_step``,
``sequence_logprob``) lives in ``decode_reference`` as the oracle for the
batched ``greedy_decode`` and ``batch_forward``; its tests stay here.
"""

import gzip
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import decode_reference
import tape_reference
from decode_reference import (
    DecoderState,
    attend,
    decode_step,
    lstm_step,
    select_greedy_token,
    sequence_logprob,
)
from groundcap import autodiff as ad
from groundcap import numeric
from groundcap.data import BOS_ID, EOS_ID, SyntheticSpec, generate_synthetic_dataset
from groundcap.errors import DataValidationError, DomainError, ShapeError
from groundcap.model import (
    DECODE_CHUNK,
    DropoutPlan,
    ModelConfig,
    ModelParams,
    batch_forward,
    greedy_decode,
    load_checkpoint,
    mean_pool,
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
        ref = numeric.softmax(a["out.w"] @ h2 + a["out.b"])
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
        assert greedy_decode([rng.normal(size=(2, 4))], params) == [[]]

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
        assert select_greedy_token(numeric.softmax(logits)) == base

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
        assert greedy_decode([], toy_params()) == []

    def test_image_without_objects_is_domain_error(self):
        params = toy_params()
        zs = [np.ones((2, 4)), np.zeros((0, 4))]
        with pytest.raises(DomainError):
            greedy_decode(zs, params)

    @pytest.mark.parametrize("max_len", [0, -1])
    def test_max_len_below_one_is_domain_error(self, max_len):
        with pytest.raises(DomainError):
            greedy_decode([np.ones((2, 4))], toy_params(), max_len)


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
        with ad.no_grad():
            out = batch_forward(
                tape_reference.constants(params), params.config, feats,
                [[0] * f.shape[0] for f in feats], [0, 1, 2], tokens,
            )
        for e in range(3):
            expected = sequence_logprob(feats[e], tokens[e], params).mean()
            assert out.per_example_logprob.data[e] == pytest.approx(expected, abs=1e-12)

    def test_shared_image_projection(self, rng):
        params = toy_params(seed=15)
        feats = [rng.normal(size=(3, 3))]
        tokens = [[3, EOS_ID], [4, EOS_ID]]  # two captions of one image
        with ad.no_grad():
            out = batch_forward(
                tape_reference.constants(params), params.config, feats, [[0, 0, 0]], [0, 0], tokens
            )
        assert out.projected_flat.data.shape == (3, 4)

    def test_full_gradient_check_small_dims(self, rng, fd_grad, rel_err):
        cfg = ModelConfig(vocab_size=6, feature_size=3, hidden_size=4)
        params = ModelParams.init(cfg, np.random.default_rng(16))
        feats = [rng.normal(size=(2, 3)), rng.normal(size=(3, 3))]
        tokens = [[3, 4, EOS_ID], [5, EOS_ID]]

        def loss_from(arrays: dict) -> float:
            p = ModelParams(config=cfg, arrays=arrays)
            with ad.no_grad():
                out = batch_forward(
                    tape_reference.constants(p), cfg, feats, [[0, 0], [0, 0, 0]], [0, 1], tokens
                )
            return float(-out.per_example_logprob.data.mean())

        tape = ad.GradientTape()
        tensors = params.tensors(tape)
        out = batch_forward(tensors, cfg, feats, [[0, 0], [0, 0, 0]], [0, 1], tokens)
        nll = ad.neg(ad.mean_(out.per_example_logprob))
        grads = ad.backward(tape, nll)

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
    reads ``projected_flat``, the second path into ``input_proj``."""
    tape = ad.GradientTape()
    rng = np.random.default_rng(seed)
    labels = [[0] * f.shape[0] for f in feats]
    out = forward(
        params.tensors(tape), params.config, feats, labels, image_of_example, tokens,
        DropoutPlan(rate=rate, rng=rng),
    )
    loss = ad.neg(ad.mean_(out.per_example_logprob))
    if probe is not None:
        loss = ad.add(loss, ad.mean_(ad.mul(out.projected_flat, ad.Tensor(probe))))
    grads = ad.backward(tape, loss)
    return out.per_example_logprob.data, grads, rng.bit_generator.state


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
            with ad.no_grad():
                out = batch_forward(
                    tape_reference.constants(p), p.config, feats, [[0], [0, 0, 0]], image_of_example,
                    tokens, DropoutPlan(rate=0.2, rng=np.random.default_rng(8)),
                )
            return float(
                -out.per_example_logprob.data.mean() + (out.projected_flat.data * probe).mean()
            )

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
                tape_reference.constants(params), params.config, [rng.normal(size=(2, 3))], [[0, 0]], [0],
                tokens,
            )


FIXTURE_CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "fixture" / "checkpoint_best.json.gz"


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
        write_text = Path.write_text

        def torn_write(self, data, *args, **kwargs):
            write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(toy_params(seed=21), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

        # Every file of a matrix run: a rerun tears the write of one of them,
        # which must keep its previous bytes and leave no partial file. A file
        # written around Path.write_text raises nothing and fails here too.
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

            def torn_named(self, data, *args, **kwargs):
                if self.name in (name, name + ".partial"):
                    torn_write(self, data, *args, **kwargs)
                return write_text(self, data, *args, **kwargs)

            monkeypatch.setattr(Path, "write_text", torn_named)
            with pytest.raises(OSError, match="disk full"):
                run_experiment_matrix(
                    replace(config, hidden_size=6), dataset, seeds=[5], out_dir=out,
                    neighbor_k=1,
                )
            monkeypatch.undo()
            assert path.read_bytes() == before, name
            assert not list(out.rglob("*.partial")), name

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
