"""The numpy kernels against the loop references in ``loop_reference``.

The references accumulate one element at a time, so the floating-point
kernels are compared within relative tolerances of 1e-14 to 1e-12 and the
bit-parallel LCS exactly; the sigmoid and the pair-pick scatter must also
match their numpy references bit for bit, and the LSTM gate backward, whose
arithmetic is the loop's, its loop. The gate kernels work in place, so the
loops get copies of the gate block.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference
from groundcap import kernels
from groundcap.errors import DomainError


# (T, B, d): each gate block is row T // 2 of a (T, B, 4d) array, as the
# fused decoder passes them
GATE_SHAPES = [(1, 7, 5), (3, 7, 5), (4, 1, 5), (3, 6, 1), (2, 1, 1)]


def _gate_rows(rng, steps, batch, d):
    """Gate pre-activations ``rows``, the index of the block to pass and a
    c_prev: rows[t] is the block, every other row must stay as it is."""
    rows = rng.normal(scale=3.0, size=(steps, batch, 4 * d))
    return rows, steps // 2, rng.normal(size=(batch, d))


def _rest(rows, t):
    return np.delete(rows, t, axis=0).tobytes()


def test_lstm_gates_forward_matches_loop_reference(rng):
    for steps, batch, d in GATE_SHAPES:
        rows, t, c_prev = _gate_rows(rng, steps, batch, d)
        pre, rest = rows[t].copy(), _rest(rows, t)
        h, c, tc = kernels.lstm_gates_forward(rows[t], c_prev)
        *want, i, f, o, g, want_tc = loop_reference.lstm_gates_forward_loop(pre, c_prev)
        # the block holds [i f o g]: the bits of the numpy sigmoid and tanh,
        # and within an ulp of the loop's math.exp and math.tanh
        assert rows[t][:, : 3 * d].tobytes() == loop_reference.sigmoid(pre[:, : 3 * d]).tobytes()
        assert rows[t][:, 3 * d :].tobytes() == np.tanh(pre[:, 3 * d :]).tobytes()
        assert _rest(rows, t) == rest
        for got, ref in zip((h, c, *np.split(rows[t], 4, axis=1), tc), (*want, i, f, o, g, want_tc)):
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=1e-15)


def test_lstm_gates_backward_matches_loop_reference(rng):
    for steps, batch, d in GATE_SHAPES:
        rows, t, c_prev = _gate_rows(rng, steps, batch, d)
        _, _, tc = kernels.lstm_gates_forward(rows[t], c_prev)
        acts, rest = rows[t].copy(), _rest(rows, t)
        dh, dc = rng.normal(size=(2, batch, d))
        dc_prev = kernels.lstm_gates_backward(dh, dc, rows[t], tc, c_prev)
        dpre, want_dc_prev = loop_reference.lstm_gates_backward_loop(
            dh, dc, *np.split(acts, 4, axis=1), tc, c_prev
        )
        assert rows[t].tobytes() == dpre.tobytes()
        assert dc_prev.tobytes() == want_dc_prev.tobytes()
        assert _rest(rows, t) == rest


def test_pair_cosines_matches_loop_reference(rng):
    vecs = rng.normal(size=(9, 4))
    np.testing.assert_allclose(
        kernels.pair_cosines_forward(vecs),
        loop_reference.pair_cosines_forward_loop(vecs),
        rtol=1e-13,
    )
    dcos = rng.normal(size=(9, 9))
    np.testing.assert_allclose(
        kernels.pair_cosines_backward(dcos, vecs),
        loop_reference.pair_cosines_backward_loop(dcos, vecs),
        rtol=1e-12,
        atol=1e-14,
    )
    vecs[3] = 0.0
    for kernel in (kernels.pair_cosines_forward, lambda v: kernels.pair_cosines_backward(dcos, v)):
        with pytest.raises(DomainError):
            kernel(vecs)


@settings(max_examples=300, deadline=None)
@given(
    a=st.lists(st.integers(0, 5), max_size=80),
    b=st.lists(st.integers(0, 5), max_size=80),
)
def test_lcs_matches_loop_reference(a, b):
    want = loop_reference.lcs_length_loop(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
    assert kernels.lcs_length(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)) == want
    assert kernels.lcs_length([f"w{t}" for t in a], [f"w{t}" for t in b]) == want


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
    rows, _, c_prev = _gate_rows(rng, 1, batch, 5)
    pre = rows[0]
    pre[0, :3] = [-800.0, 0.0, 800.0]
    gates = pre.copy()
    kernels.lstm_gates_forward(gates, c_prev)
    for k in range(3):
        block = slice(k * 5, (k + 1) * 5)
        assert np.array_equal(gates[:, block], kernels.sigmoid(pre[:, block]))


def test_sigmoid_matches_masked_branch_reference(rng):
    specials = [0.0, -0.0, 800.0, -800.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]
    x = np.concatenate([rng.normal(scale=10.0, size=10**6), specials])
    got = kernels.sigmoid(x)
    want = loop_reference.sigmoid(x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # a strided gate block, a 0-d value and an empty array
    block = rng.normal(scale=4.0, size=(100, 256))[:, :192]
    assert kernels.sigmoid(block).tobytes() == loop_reference.sigmoid(block).tobytes()
    for value in (np.float64(-3.5), np.zeros(0)):
        got, want = kernels.sigmoid(value), loop_reference.sigmoid(value)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_pair_cosines_backward_matches_add_at_reference(rng):
    # the cell scatter against np.add.at, one list at a time and all lists
    # at once, and the picks' cosines and row gradients through the matrix
    # against the cell-by-cell loops
    vecs = rng.normal(size=(9, 4))
    # repeated rows, rows paired with themselves, unreferenced rows, no pairs
    cases = [
        (np.array([0, 0, 3, 5, 5, 5, 2, 7]), np.array([1, 0, 3, 2, 5, 0, 2, 7])),
        (np.arange(9), np.arange(9)),
        (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)),
    ]
    for _ in range(20):
        cases.append((rng.integers(0, 9, size=40), rng.integers(0, 9, size=40)))
    cos = kernels.pair_cosines_forward(vecs)
    want_cos = loop_reference.pair_cosines_forward_loop(vecs)
    for left, right in cases:
        np.testing.assert_allclose(cos[left, right], want_cos[left, right], rtol=1e-13)
    dpicks = [rng.normal(size=len(left)) for left, _ in cases]
    # each list on its own, then all of them at once, many sharing cells
    calls = [([g], [pick]) for g, pick in zip(dpicks, cases)] + [(dpicks, cases)]
    for g, picks in calls:
        dcos = kernels.scatter_cells(g, picks, 9)
        want_dcos = loop_reference.scatter_cells(g, picks, 9)
        assert dcos.shape == (9, 9)
        assert dcos.tobytes() == want_dcos.tobytes()
        np.testing.assert_allclose(
            kernels.pair_cosines_backward(dcos, vecs),
            loop_reference.pair_cosines_backward_loop(want_dcos, vecs),
            rtol=1e-12,
            atol=1e-14,
        )


def test_scatter_rows_matches_add_at_reference(rng):
    # repeated rows (in and out of order), a single row picked many times,
    # unreferenced rows, one column, and no rows at all
    cases = [
        (np.array([4, 0, 4, 2, 4, 0, 6]), 7, 5),
        (np.full(50, 3), 7, 3),
        (np.arange(7)[::-1].copy(), 7, 4),
        (rng.integers(0, 7, size=200), 7, 1),
        (np.zeros(0, dtype=np.int64), 7, 5),
        (np.zeros(0, dtype=np.int64), 0, 5),
    ]
    for _ in range(20):
        cases.append((rng.integers(0, 30, size=300), 30, 64))
    for ids, n, w in cases:
        # values spread over many magnitudes, so the sum order shows in the bits
        values = rng.normal(size=(len(ids), w)) * 10.0 ** rng.integers(-8, 9, size=(len(ids), w))
        got = kernels.scatter_rows(ids, values, n)
        want = loop_reference.scatter_rows(ids, values, n)
        assert got.shape == want.shape == (n, w)
        assert got.tobytes() == want.tobytes()


def test_lcs_known_values():
    lcs = kernels.lcs_length
    assert lcs(np.array([1, 2, 3], dtype=np.int64), np.array([1, 2, 3], dtype=np.int64)) == 3
    assert lcs(np.array([1, 2, 3], dtype=np.int64), np.array([4, 5], dtype=np.int64)) == 0
    assert lcs(np.array([1, 3, 2, 4], dtype=np.int64), np.array([1, 2, 3, 4], dtype=np.int64)) == 3
    assert lcs(np.array([], dtype=np.int64), np.array([1], dtype=np.int64)) == 0

