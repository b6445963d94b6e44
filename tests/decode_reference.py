"""Single-example decoder: the oracle for the batched greedy decoder.

One image and one batch-1 LSTM step at a time. ``groundcap.model.
greedy_decode`` must pick the same tokens, image for image, and
``sequence_logprob`` is the per-example reference for ``batch_forward``.
``decode_tokens`` turns token ids back into a caption string.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from groundcap import autodiff as ad
from groundcap import kernels, numeric
from groundcap.autodiff import Tensor
from groundcap.data import BOS_ID, EOS_ID, Vocabulary
from groundcap.errors import DomainError
from groundcap.model import ModelParams, mean_pool, project_features


def lstm_step(
    x: np.ndarray,
    state: tuple[np.ndarray, np.ndarray],
    wx: np.ndarray,
    wh: np.ndarray,
    b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Single LSTM cell step on 1-D arrays; returns (h', c')."""
    h_prev, c_prev = state
    pre = (x @ wx.T + h_prev @ wh.T + b)[None, :]
    h, c, *_ = kernels.lstm_gates_forward(pre, np.ascontiguousarray(c_prev[None, :]))
    return h[0], c[0]


def attend(h1: np.ndarray, z: np.ndarray, wa: np.ndarray, wav: np.ndarray) -> np.ndarray:
    """Attention context vector for one decoder state over k object rows."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 1:
        raise DomainError("attend needs at least one object vector")
    with ad.no_grad():
        out = ad.attend(
            Tensor(h1[None, :]),
            Tensor(z[None, :, :]),
            np.ones((1, z.shape[0])),
            Tensor(wa),
            Tensor(wav),
        )
    return out.data[0]


@dataclass
class DecoderState:
    h1: np.ndarray
    c1: np.ndarray
    h2: np.ndarray
    c2: np.ndarray

    @classmethod
    def zeros(cls, d: int) -> "DecoderState":
        return cls(np.zeros(d), np.zeros(d), np.zeros(d), np.zeros(d))


def decode_step(
    y_prev: int,
    state: DecoderState,
    z: np.ndarray,
    z_bar: np.ndarray,
    params: ModelParams,
) -> tuple[np.ndarray, DecoderState]:
    """One inference step: distribution over the vocabulary plus new state."""
    cfg = params.config
    if not 0 <= y_prev < cfg.vocab_size:
        raise DomainError(f"token id {y_prev} outside vocabulary of size {cfg.vocab_size}")
    a = params.arrays
    x = a["embedding"][:, y_prev]
    in1 = np.concatenate([x, z_bar, state.h2])
    h1, c1 = lstm_step(in1, (state.h1, state.c1), a["lstm1.wx"], a["lstm1.wh"], a["lstm1.b"])
    ct = attend(h1, z, a["att.proj"], a["att.score"])
    in2 = np.concatenate([ct, h1])
    h2, c2 = lstm_step(in2, (state.h2, state.c2), a["lstm2.wx"], a["lstm2.wh"], a["lstm2.b"])
    probs = numeric.softmax(a["out.w"] @ h2 + a["out.b"])
    return probs, DecoderState(h1, c1, h2, c2)


def sequence_logprob(
    features: np.ndarray,
    tokens: list[int],
    params: ModelParams,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Per-step log p(y*_t | y*_{<t}) under teacher forcing for one example.

    With dropout_rate 0 this is deterministic. A positive rate requires an
    rng and samples one inverted-dropout mask per (x_t, h1, h2) per step,
    the training-time behaviour.
    """
    if dropout_rate > 0.0 and rng is None:
        raise DomainError("dropout_rate > 0 requires an rng")
    a = params.arrays
    keep = 1.0 - dropout_rate

    def drop(v: np.ndarray) -> np.ndarray:
        if dropout_rate == 0.0:
            return v
        return v * ((rng.random(v.shape) >= dropout_rate) / keep)

    z = project_features(features, a["input_proj"])
    z_bar = mean_pool(z)
    d = params.config.hidden_size
    h1 = np.zeros(d)
    c1 = np.zeros(d)
    h2 = np.zeros(d)
    c2 = np.zeros(d)
    h2_fed = h2
    lps = np.empty(len(tokens))
    y_prev = BOS_ID
    for t, target in enumerate(tokens):
        x = drop(a["embedding"][:, y_prev])
        in1 = np.concatenate([x, z_bar, h2_fed])
        h1, c1 = lstm_step(in1, (h1, c1), a["lstm1.wx"], a["lstm1.wh"], a["lstm1.b"])
        h1d = drop(h1)
        ct = attend(h1d, z, a["att.proj"], a["att.score"])
        in2 = np.concatenate([ct, h1d])
        h2, c2 = lstm_step(in2, (h2, c2), a["lstm2.wx"], a["lstm2.wh"], a["lstm2.b"])
        h2_fed = drop(h2)
        lps[t] = numeric.log_softmax(a["out.w"] @ h2_fed + a["out.b"])[target]
        y_prev = target
    return lps


def select_greedy_token(logits_or_probs: np.ndarray) -> int:
    """Argmax with ties broken toward the lowest token id."""
    return int(np.argmax(logits_or_probs))


def greedy_decode_one(z: np.ndarray, params: ModelParams, max_len: int = 16) -> list[int]:
    """Greedy caption for one image's projected object vectors z; EOS is not emitted."""
    if max_len < 1:
        raise DomainError(f"max_len must be >= 1, got {max_len}")
    z = np.asarray(z, dtype=np.float64)
    z_bar = mean_pool(z)
    state = DecoderState.zeros(params.config.hidden_size)
    out: list[int] = []
    y = BOS_ID
    while len(out) < max_len:
        probs, state = decode_step(y, state, z, z_bar, params)
        y = select_greedy_token(probs)
        if y == EOS_ID:
            break
        out.append(y)
    return out


def greedy_decode(zs: list[np.ndarray], params: ModelParams, max_len: int = 16) -> list[list[int]]:
    """``groundcap.model.greedy_decode``'s signature, one image at a time."""
    return [greedy_decode_one(z, params, max_len) for z in zs]


def decode_tokens(ids: list[int], vocab: Vocabulary) -> str:
    """Inverse of ``encode_caption`` up to UNK mapping; stops at EOS."""
    words = []
    for i in ids:
        if i == EOS_ID:
            break
        if i == BOS_ID:
            continue
        words.append(vocab.id_to_token(i))
    return " ".join(words)
