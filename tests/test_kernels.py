"""The numpy kernels against the loop references in ``loop_reference``.

The references accumulate one element at a time, so the floating-point
kernels are compared within relative tolerances of 1e-14 to 1e-12 and LCS
exactly; the sigmoid and the pair-cosine scatter must match bit for bit.
"""

import numpy as np
import pytest

import loop_reference
from groundcap import kernels, numeric


def _random_gate_inputs(rng, batch=7, d=5):
    pre = rng.normal(size=(batch, 4 * d))
    c_prev = rng.normal(size=(batch, d))
    return pre, c_prev


def test_lstm_gates_forward_matches_loop_reference(rng):
    pre, c_prev = _random_gate_inputs(rng)
    got = kernels.lstm_gates_forward(pre, c_prev)
    got_loop = loop_reference.lstm_gates_forward_loop(pre, c_prev)
    for a, b in zip(got, got_loop):
        np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-15)


def test_lstm_gates_backward_matches_loop_reference(rng):
    pre, c_prev = _random_gate_inputs(rng)
    h, c, i, f, o, g, tc = kernels.lstm_gates_forward(pre, c_prev)
    dh = rng.normal(size=h.shape)
    dc = rng.normal(size=c.shape)
    a = kernels.lstm_gates_backward(dh, dc, i, f, o, g, tc, c_prev)
    b = loop_reference.lstm_gates_backward_loop(dh, dc, i, f, o, g, tc, c_prev)
    np.testing.assert_allclose(a[0], b[0], rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(a[1], b[1], rtol=1e-13, atol=1e-15)


def test_pair_cosines_matches_loop_reference(rng):
    vecs = rng.normal(size=(9, 4))
    left = rng.integers(0, 9, size=20)
    right = rng.integers(0, 9, size=20)
    np.testing.assert_allclose(
        kernels.pair_cosines_forward(vecs, left, right),
        loop_reference.pair_cosines_forward_loop(vecs, left, right),
        rtol=1e-13,
    )
    dsims = rng.normal(size=20)
    np.testing.assert_allclose(
        kernels.pair_cosines_backward(dsims, vecs, left, right),
        loop_reference.pair_cosines_backward_loop(dsims, vecs, left, right),
        rtol=1e-12,
        atol=1e-14,
    )


def test_lcs_matches_loop_reference(rng):
    for _ in range(25):
        a = rng.integers(0, 6, size=rng.integers(0, 15)).astype(np.int64)
        b = rng.integers(0, 6, size=rng.integers(0, 15)).astype(np.int64)
        assert kernels.lcs_length(a, b) == loop_reference.lcs_length_loop(a, b)


def test_iou_matrix_matches_loop_reference(rng):
    def boxes(n):
        x0 = rng.uniform(0, 0.8, size=n)
        y0 = rng.uniform(0, 0.8, size=n)
        return np.stack(
            [x0, y0, x0 + rng.uniform(0.05, 0.2, n), y0 + rng.uniform(0.05, 0.2, n)],
            axis=1,
        )

    a, b = boxes(12), boxes(8)
    np.testing.assert_allclose(
        kernels.iou_matrix(a, b), loop_reference.iou_matrix_loop(a, b), rtol=1e-14
    )


@pytest.mark.parametrize("batch", [1, 7])
def test_lstm_gates_forward_sigmoid_blocks_exact(rng, batch):
    # The three sigmoid gates go through one call; each must equal its own.
    pre, c_prev = _random_gate_inputs(rng, batch=batch)
    pre[0, :3] = [-800.0, 0.0, 800.0]
    _, _, i, f, o, _, _ = kernels.lstm_gates_forward(pre, c_prev)
    d = c_prev.shape[1]
    for k, gate in enumerate((i, f, o)):
        assert np.array_equal(gate, numeric.sigmoid(pre[:, k * d:(k + 1) * d]))


def test_sigmoid_matches_masked_branch_reference(rng):
    specials = [0.0, -0.0, 800.0, -800.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]
    x = np.concatenate([rng.normal(scale=10.0, size=10**6), specials])
    got = numeric.sigmoid(x)
    want = loop_reference.sigmoid(x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # a strided gate block, a 0-d value and an empty array
    block = rng.normal(scale=4.0, size=(100, 256))[:, :192]
    assert numeric.sigmoid(block).tobytes() == loop_reference.sigmoid(block).tobytes()
    for value in (np.float64(-3.5), np.zeros(0)):
        got, want = numeric.sigmoid(value), loop_reference.sigmoid(value)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_pair_cosines_backward_matches_add_at_reference(rng):
    vecs = rng.normal(size=(9, 4))
    # repeated rows, rows paired with themselves, and unreferenced rows
    left = np.array([0, 0, 3, 5, 5, 5, 2, 7], dtype=np.int64)
    right = np.array([1, 0, 3, 2, 5, 0, 2, 7], dtype=np.int64)
    dsims = rng.normal(size=len(left))
    got = kernels.pair_cosines_backward(dsims, vecs, left, right)
    want = loop_reference.pair_cosines_backward(dsims, vecs, left, right)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    for _ in range(20):
        left = rng.integers(0, 9, size=40)
        right = rng.integers(0, 9, size=40)
        dsims = rng.normal(size=40)
        assert np.array_equal(
            kernels.pair_cosines_backward(dsims, vecs, left, right),
            loop_reference.pair_cosines_backward(dsims, vecs, left, right),
        )
    empty = np.zeros(0, dtype=np.int64)
    assert np.array_equal(
        kernels.pair_cosines_backward(np.zeros(0), vecs, empty, empty),
        np.zeros_like(vecs),
    )


def test_lcs_known_values():
    lcs = kernels.lcs_length
    assert lcs(np.array([1, 2, 3], dtype=np.int64), np.array([1, 2, 3], dtype=np.int64)) == 3
    assert lcs(np.array([1, 2, 3], dtype=np.int64), np.array([4, 5], dtype=np.int64)) == 0
    assert lcs(np.array([1, 3, 2, 4], dtype=np.int64), np.array([1, 2, 3, 4], dtype=np.int64)) == 3
    assert lcs(np.array([], dtype=np.int64), np.array([1], dtype=np.int64)) == 0

