"""Contracts of the numeric core: plain helpers, tape ops, gradient checks.

Every differentiable primitive is checked against central finite
differences (step 1e-5, float64) with relative error <= 1e-4. That
includes the ops of the step-by-step tape decoder in ``tape_reference``
(sum, log-softmax, concatenation, column slices, embedding lookup, target
pick, padding, dropout), the oracle of the fused teacher-forced op.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference
import tape_reference as tr
from groundcap import autodiff as ad
from groundcap import numeric
from groundcap.errors import (
    ContractError,
    DegenerateStatisticsError,
    DomainError,
    ShapeError,
)

FD_TOL = 1e-4


# ---------------------------------------------------------------------------
# plain helpers
# ---------------------------------------------------------------------------

class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(numeric.softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_large_inputs_do_not_overflow(self):
        out = numeric.softmax(np.array([1000.0, 1000.0, 1000.0]))
        np.testing.assert_allclose(out, np.full(3, 1 / 3), atol=1e-12)
        assert np.isfinite(out).all()

    def test_exp_log_identity(self):
        out = numeric.softmax(np.log(np.array([1.0, 2.0, 3.0])))
        np.testing.assert_allclose(out, np.array([1, 2, 3]) / 6.0, atol=1e-12)

    def test_empty_is_domain_error(self):
        with pytest.raises(DomainError):
            numeric.softmax(np.array([]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, xs):
        x = np.array(xs)
        out = numeric.softmax(x)
        assert abs(out.sum() - 1.0) < 1e-12
        shifted = numeric.softmax(x + 13.7)
        np.testing.assert_allclose(out, shifted, atol=1e-12)


class TestCosine:
    def test_self_similarity(self, rng):
        u = rng.normal(size=6)
        assert loop_reference.cosine(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert loop_reference.cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_antiparallel(self, rng):
        u = rng.normal(size=4)
        assert loop_reference.cosine(u, -u) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_norm_is_domain_error(self):
        with pytest.raises(DomainError):
            loop_reference.cosine([0.0, 0.0], [1.0, 2.0])

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=6),
        st.floats(0.01, 100),
        st.floats(0.01, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_scale_invariant(self, us, a, b):
        u = np.array(us)
        v = np.linspace(1.0, 2.0, len(us))
        if np.linalg.norm(u) < 1e-6:  # denormal squares lose the 1e-12 bound
            return
        c = loop_reference.cosine(u, v)
        assert loop_reference.cosine(v, u) == pytest.approx(c, abs=1e-12)
        assert loop_reference.cosine(a * u, b * v) == pytest.approx(c, abs=1e-12)


class TestPearson:
    def test_exact_linear(self):
        assert numeric.pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)

    def test_exact_anti_linear(self):
        assert numeric.pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_value(self):
        # centered x.y = 4, |x~|^2 = |y~|^2 = 5 -> 4/5
        assert numeric.pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_too_short_is_degenerate(self):
        with pytest.raises(DegenerateStatisticsError):
            numeric.pearson([1.0], [2.0])

    def test_zero_variance_is_degenerate(self):
        with pytest.raises(DegenerateStatisticsError):
            numeric.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @given(
        st.floats(0.1, 50),
        st.floats(-20, 20),
        st.floats(0.1, 50),
        st.floats(-20, 20),
    )
    @settings(max_examples=50, deadline=None)
    def test_positive_affine_invariance(self, a, b, c, d):
        xs = np.array([0.3, -1.2, 2.5, 0.9, -0.4])
        ys = np.array([1.1, 0.2, -0.7, 1.9, 0.5])
        base = numeric.pearson(xs, ys)
        assert numeric.pearson(a * xs + b, c * ys + d) == pytest.approx(base, abs=1e-10)


# ---------------------------------------------------------------------------
# tape mechanics
# ---------------------------------------------------------------------------

class TestTape:
    def test_linear_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.linear(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 2))))

    def test_square_gradient(self):
        tape = ad.GradientTape()
        x = tape.parameter("x", np.array(3.0))
        loss = ad.mul(x, x)
        grads = ad.backward(tape, loss)
        assert grads["x"] == pytest.approx(6.0)

    def test_softmax_cross_entropy_gradient_is_p_minus_onehot(self, rng):
        logits_val = rng.normal(size=5)
        target = 2
        tape = ad.GradientTape()
        logits = tape.parameter("logits", logits_val.copy())
        lp = tr.log_softmax(logits, axis=-1)
        loss = ad.neg(tr.sum_(ad.mul(lp, ad.Tensor(np.eye(5)[target]))))
        grads = ad.backward(tape, loss)
        expected = numeric.softmax(logits_val) - np.eye(5)[target]
        np.testing.assert_allclose(grads["logits"], expected, atol=1e-12)

    def test_unused_parameter_gets_exact_zeros(self):
        tape = ad.GradientTape()
        x = tape.parameter("x", np.array(2.0))
        unused = tape.parameter("unused", np.ones((3, 2)))
        grads = ad.backward(tape, ad.mul(x, x))
        assert grads["unused"].shape == (3, 2)
        assert (grads["unused"] == 0.0).all()

    def test_gradient_shapes_match_parameters(self, rng):
        tape = ad.GradientTape()
        w = tape.parameter("w", rng.normal(size=(3, 4)))
        x = ad.Tensor(rng.normal(size=(2, 4)))
        grads = ad.backward(tape, ad.mean_(ad.linear(x, w)))
        assert grads["w"].shape == w.data.shape

    def test_non_scalar_loss_is_contract_error(self):
        tape = ad.GradientTape()
        w = tape.parameter("w", np.ones(3))
        with pytest.raises(ContractError):
            ad.backward(tape, ad.mul(w, w))

    def test_duplicate_parameter_name_rejected(self):
        tape = ad.GradientTape()
        tape.parameter("w", np.ones(2))
        with pytest.raises(ContractError):
            tape.parameter("w", np.ones(2))

    def test_no_grad_blocks_recording(self):
        tape = ad.GradientTape()
        x = tape.parameter("x", np.array(2.0))
        with ad.no_grad():
            y = ad.mul(x, x)
        assert not y.requires_grad
        grads = ad.backward(tape, y)
        assert grads["x"] == 0.0


# ---------------------------------------------------------------------------
# finite-difference checks for every differentiable primitive
# ---------------------------------------------------------------------------

def _check(fn_t, fn_np, arrays, fd_grad, rel_err):
    """fn_t builds a scalar Tensor from parameter Tensors; fn_np mirrors it."""
    tape = ad.GradientTape()
    params = [tape.parameter(f"p{i}", a) for i, a in enumerate(arrays)]
    grads = ad.backward(tape, fn_t(*params))
    numeric_grads = fd_grad(fn_np, arrays)
    for i, ng in enumerate(numeric_grads):
        assert rel_err(grads[f"p{i}"], ng) <= FD_TOL


class TestPrimitiveGradients:
    def test_add_mul_broadcast(self, rng, fd_grad, rel_err):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4,))
        _check(
            lambda x, y: ad.mean_(ad.mul(ad.add(x, y), ad.add(x, y))),
            lambda x, y: float(np.mean((x + y) * (x + y))),
            [a, b],
            fd_grad,
            rel_err,
        )

    def test_linear_with_bias(self, rng, fd_grad, rel_err):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(5, 4))
        b = rng.normal(size=5)
        probe = rng.normal(size=(3, 5))
        _check(
            lambda xx, ww, bb: tr.sum_(ad.mul(ad.linear(xx, ww, bb), ad.Tensor(probe))),
            lambda xx, ww, bb: float(((xx @ ww.T + bb) * probe).sum()),
            [x, w, b],
            fd_grad,
            rel_err,
        )

    def test_elementwise_chain(self, rng, fd_grad, rel_err):
        # the cluster hinge's chain: relu(margin - a + b), negated
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))

        def build(x, y):
            return tr.sum_(ad.neg(ad.relu(ad.add(ad.sub(ad.Tensor(0.2), x), y))))

        _check(
            build,
            lambda x, y: float(-np.maximum(0.2 - x + y, 0.0).sum()),
            [a, b],
            fd_grad,
            rel_err,
        )

    def test_log_and_relu(self, rng, fd_grad, rel_err):
        x = rng.uniform(0.5, 2.0, size=(2, 3)) * rng.choice([-1.0, 1.0], size=(2, 3))
        w = rng.normal(size=(2, 3))
        _check(
            lambda t: tr.sum_(ad.mul(ad.relu(t), ad.Tensor(w))),
            lambda a: float((np.maximum(a, 0.0) * w).sum()),
            [x],
            fd_grad,
            rel_err,
        )

    def test_softmax_and_log_softmax(self, rng, fd_grad, rel_err):
        x = rng.normal(size=(2, 5))
        w = rng.normal(size=(2, 5))
        _check(
            lambda t: tr.sum_(ad.mul(tr.log_softmax(t, axis=1), ad.Tensor(w))),
            lambda a: float((numeric.log_softmax(a, axis=1) * w).sum()),
            [x],
            fd_grad,
            rel_err,
        )

    def test_concat_slice_sum_axis(self, rng, fd_grad, rel_err):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 2))

        def build(x, y):
            cat = tr.concat([x, y], axis=1)
            return tr.sum_(ad.mul(tr.slice_cols(cat, 1, 4), tr.slice_cols(cat, 0, 3)))

        def ref(x, y):
            cat = np.concatenate([x, y], axis=1)
            return float((cat[:, 1:4] * cat[:, 0:3]).sum())

        _check(build, ref, [a, b], fd_grad, rel_err)

    def test_embedding_and_gather(self, rng, fd_grad, rel_err):
        w = rng.normal(size=(4, 6))
        ids = np.array([1, 5, 1])
        picks = np.array([0, 2, 3])

        def build(t):
            rows = tr.embedding_cols(t, ids)
            return tr.sum_(tr.gather_cols(rows, picks))

        def ref(a):
            return float(a[:, ids].T[np.arange(3), picks].sum())

        _check(build, ref, [w], fd_grad, rel_err)

    def test_pad_rows_with_overlapping_segments(self, rng, fd_grad, rel_err):
        flat = rng.normal(size=(5, 3))
        offsets = np.array([0, 2, 0])
        counts = np.array([2, 3, 4])
        scale = rng.normal(size=(3, 4, 3))

        def build(t):
            return tr.sum_(ad.mul(tr.pad_rows(t, offsets, counts, 4), ad.Tensor(scale)))

        def ref(a):
            out = np.zeros((3, 4, 3))
            for i in range(3):
                out[i, : counts[i]] = a[offsets[i] : offsets[i] + counts[i]]
            return float((out * scale).sum())

        _check(build, ref, [flat], fd_grad, rel_err)

    def test_lstm_cell(self, rng, fd_grad, rel_err):
        d, din, batch = 4, 6, 3
        x = rng.normal(size=(batch, din))
        hc = rng.normal(size=(batch, 2 * d))
        wx = rng.normal(size=(4 * d, din)) * 0.4
        wh = rng.normal(size=(4 * d, d)) * 0.4
        b = rng.normal(size=4 * d) * 0.2
        probe = rng.normal(size=(batch, 2 * d))

        def build(xx, hh, wxx, whh, bb):
            return tr.sum_(ad.mul(ad.lstm_cell(xx, hh, wxx, whh, bb), ad.Tensor(probe)))

        def ref(xx, hh, wxx, whh, bb):
            from groundcap import kernels

            pre = xx @ wxx.T + hh[:, :d] @ whh.T + bb
            h, c, *_ = kernels.lstm_gates_forward(pre, hh[:, d:])
            return float((np.concatenate([h, c], axis=1) * probe).sum())

        _check(build, ref, [x, hc, wx, wh, b], fd_grad, rel_err)

    def test_attend(self, rng, fd_grad, rel_err):
        batch, k, d, da = 2, 3, 4, 5
        h1 = rng.normal(size=(batch, d))
        z = rng.normal(size=(batch, k, d))
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        z[0, 2] = 0.0  # padded slot
        wa = rng.normal(size=(da, 2 * d)) * 0.5
        wav = rng.normal(size=da)
        probe = rng.normal(size=(batch, d))

        def build(hh, zz, ww, wv):
            return tr.sum_(ad.mul(ad.attend(hh, zz, mask, ww, wv), ad.Tensor(probe)))

        def ref(hh, zz, ww, wv):
            u = np.tanh((hh @ ww[:, :d].T)[:, None, :] + zz @ ww[:, d:].T)
            e = u @ wv
            e = np.where(mask > 0, e, -np.inf)
            e = e - e.max(axis=1, keepdims=True)
            a = np.exp(e)
            a = a / a.sum(axis=1, keepdims=True)
            ct = np.einsum("bk,bkd->bd", a, zz)
            return float((ct * probe).sum())

        _check(build, ref, [h1, z, wa, wav], fd_grad, rel_err)

    def test_cosine_matrix(self, rng, fd_grad, rel_err):
        # rows 1 and 4 of the superset stay out of the matrix: zero gradient
        vecs = rng.normal(size=(6, 4))
        rows = np.array([5, 0, 2, 3])
        probe = rng.normal(size=(4, 4))

        def build(t):
            return tr.sum_(ad.mul(ad.cosine_matrix(t, rows), ad.Tensor(probe)))

        def ref(a):
            sims = np.array([[loop_reference.cosine(a[i], a[j]) for j in rows] for i in rows])
            return float((sims * probe).sum())

        _check(build, ref, [vecs], fd_grad, rel_err)

    def test_pair_pick(self, rng, fd_grad, rel_err):
        # a repeated pick, a diagonal cell and both orders of one pair
        m = rng.normal(size=(4, 4))
        left = np.array([0, 2, 2, 3, 1, 0])
        right = np.array([1, 3, 3, 3, 0, 1])
        probe = rng.normal(size=6)

        def build(t):
            return tr.sum_(ad.mul(ad.pair_pick(t, left, right), ad.Tensor(probe)))

        def ref(a):
            return float((a[left, right] * probe).sum())

        _check(build, ref, [m], fd_grad, rel_err)

    def test_cosine_and_pearson(self, rng, fd_grad, rel_err):
        u = rng.normal(size=5)
        v = rng.normal(size=5)
        _check(
            lambda a, b: ad.pearson_t(a, b),
            lambda a, b: numeric.pearson(a, b),
            [u, v],
            fd_grad,
            rel_err,
        )

    def test_column_group_mean(self, rng, fd_grad, rel_err):
        w = rng.normal(size=(3, 7))
        groups = [np.array([0]), np.array([2, 5]), np.array([1, 3, 6])]
        probe = rng.normal(size=(3, 3))

        def build(t):
            return tr.sum_(ad.mul(ad.column_group_mean(t, groups), ad.Tensor(probe)))

        def ref(a):
            rows = np.stack([a[:, g].mean(axis=1) for g in groups])
            return float((rows * probe).sum())

        _check(build, ref, [w], fd_grad, rel_err)

    def test_dropout_scales_and_masks(self, rng):
        x = ad.Tensor(np.ones((4, 5)))
        out = tr.dropout(x, 0.0, rng)
        assert out is x
        tape = ad.GradientTape()
        p = tape.parameter("p", np.ones((200, 50)))
        dropped = tr.dropout(p, 0.2, np.random.default_rng(0))
        vals = np.unique(dropped.data)
        assert set(np.round(vals, 12)) <= {0.0, round(1 / 0.8, 12)}
        grads = ad.backward(tape, tr.sum_(dropped))
        np.testing.assert_array_equal(grads["p"] == 0.0, dropped.data == 0.0)
