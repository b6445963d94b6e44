"""Two-layer top-down attention LSTM decoder over projected object features.

Decoding step t:
    x_t   = embedding column of the previous token
    h1,c1 = LSTM1([x_t, mean(z), h2_{t-1}], (h1, c1))
    ct    = additive attention of h1 over the object vectors z
    h2,c2 = LSTM2([ct, h1], (h2, c2))
    p     = softmax(W_out h2 + b_out)

Object features v enter through a trainable bias-free projection
z = W_in v. States start at zero and the first input token is BOS.
Training feeds the ground-truth previous token at every step (teacher
forcing) and applies inverted dropout to x_t, h1 and h2 before their
consumers; the dropped h2 feeds both the output projection and the next
step's LSTM1 input. The teacher-forced pass is one tape node over all
steps (``autodiff.teacher_forced_logprob``); its dropout masks are drawn up
front in one call, x, h1, h2 for each step in turn, as a step-by-step pass
would draw them.

Inference decodes greedily until EOS or the length cap, argmax ties broken
toward the lowest token id. It runs a split in chunks of DECODE_CHUNK
images: each chunk pads its object sets to one (B, K, d) block, attention
masks the padding out, and a row leaves the batch once it emits EOS. As in
the teacher-forced op, the loop invariants are computed once per chunk: the
attention projection of z and LSTM1's mean(z) term with its bias.
"""

from __future__ import annotations

import ctypes
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import orjson

from . import autodiff as ad
from . import kernels, numeric
from .autodiff import Tensor
from .data import BOS_ID, EOS_ID, write_atomic
from .errors import DataValidationError, DomainError, ShapeError

INIT_SCALE = 0.08
FORGET_BIAS = 1.0
CHECKPOINT_VERSION = 1

# glibc's malloc_trim; None where the C library has none (musl, macOS, Windows)
try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    feature_size: int
    hidden_size: int = 512
    att_size: int | None = None  # None -> hidden_size

    @property
    def att_width(self) -> int:
        return self.hidden_size if self.att_size is None else self.att_size


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    d, v, a = cfg.hidden_size, cfg.vocab_size, cfg.att_width
    return {
        "input_proj": (d, cfg.feature_size),
        "embedding": (d, v),
        "lstm1.wx": (4 * d, 3 * d),
        "lstm1.wh": (4 * d, d),
        "lstm1.b": (4 * d,),
        "att.proj": (a, 2 * d),
        "att.score": (a,),
        "lstm2.wx": (4 * d, 2 * d),
        "lstm2.wh": (4 * d, d),
        "lstm2.b": (4 * d,),
        "out.w": (v, d),
        "out.b": (v,),
    }


@dataclass
class ModelParams:
    """All trainable arrays plus the config that shaped them."""

    config: ModelConfig
    arrays: dict[str, np.ndarray]

    @classmethod
    def init(cls, config: ModelConfig, rng: np.random.Generator) -> "ModelParams":
        """Uniform(-0.08, 0.08) matrices, zero biases, forget-gate bias +1."""
        arrays = {}
        for name, shape in param_shapes(config).items():
            if name.endswith(".b"):
                arrays[name] = np.zeros(shape)
            else:
                arrays[name] = rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)
        d = config.hidden_size
        arrays["lstm1.b"][d : 2 * d] = FORGET_BIAS
        arrays["lstm2.b"][d : 2 * d] = FORGET_BIAS
        return cls(config=config, arrays=arrays)

    def validate(self) -> None:
        expected = param_shapes(self.config)
        if set(expected) != set(self.arrays):
            raise DataValidationError(
                f"parameter names {sorted(self.arrays)} do not match expected {sorted(expected)}"
            )
        for name, shape in expected.items():
            got = self.arrays[name].shape
            if got != shape:
                raise DataValidationError(f"parameter {name}: shape {got}, expected {shape}")
            if not np.isfinite(self.arrays[name]).all():
                raise DataValidationError(f"parameter {name} has non-finite entries")

    def copy(self) -> "ModelParams":
        return ModelParams(
            config=self.config, arrays={k: v.copy() for k, v in self.arrays.items()}
        )

    def tensors(self, tape: ad.GradientTape) -> dict[str, Tensor]:
        return {name: tape.parameter(name, arr) for name, arr in self.arrays.items()}


def save_checkpoint(params: ModelParams, path: Path, extra: dict | None = None) -> None:
    """Write the checkpoint JSON atomically: a kill or a failed write leaves
    any previous checkpoint at ``path`` intact."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "model": {
            "vocab_size": params.config.vocab_size,
            "feature_size": params.config.feature_size,
            "hidden_size": params.config.hidden_size,
            "att_size": params.config.att_size,
        },
        "params": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in sorted(params.arrays.items())
        },
    }
    if extra:
        payload["extra"] = extra
    write_atomic(path, json.dumps(payload, sort_keys=True))


def load_checkpoint(path: Path) -> tuple[ModelParams, dict]:
    try:
        payload = orjson.loads(Path(path).read_bytes())
        if payload["format_version"] != CHECKPOINT_VERSION:
            raise DataValidationError(
                f"unsupported checkpoint version {payload['format_version']}"
            )
        m = payload["model"]
        config = ModelConfig(
            vocab_size=int(m["vocab_size"]),
            feature_size=int(m["feature_size"]),
            hidden_size=int(m["hidden_size"]),
            att_size=None if m["att_size"] is None else int(m["att_size"]),
        )
        arrays = {
            name: np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
            for name, entry in payload.pop("params").items()
        }
    except DataValidationError:
        raise
    except OSError as err:
        raise DataValidationError(f"cannot read checkpoint {path}: {err}") from err
    except (KeyError, TypeError, ValueError) as err:
        raise DataValidationError(f"malformed checkpoint {path}: {err}") from err
    # orjson gathers each large array's items in a growing buffer, and the
    # freed buffers leave glibc's heap fragmented. Without handing the free
    # pages back, a process that loads the 2.8 MB benchmark checkpoint once
    # per call kept about 10 MB more resident than one that parsed it with
    # the json module.
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
    params = ModelParams(config=config, arrays=arrays)
    params.validate()
    return params, payload.get("extra", {})


# ---------------------------------------------------------------------------
# projection and batched greedy decoding (inference path)
# ---------------------------------------------------------------------------

def project_features(features: np.ndarray, w_in: np.ndarray) -> np.ndarray:
    """Bias-free linear projection z_i = W_in v_i applied rowwise."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != w_in.shape[1]:
        raise ShapeError(f"features {features.shape} do not match projection {w_in.shape}")
    return features @ w_in.T


def mean_pool(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 1:
        raise DomainError("mean_pool needs at least one vector")
    return z.mean(axis=0)


# Images per greedy-decode pass. Larger chunks decode no faster and hold
# more padded state in memory.
DECODE_CHUNK = 100


def greedy_decode(
    zs: list[np.ndarray], params: ModelParams, max_len: int = 16
) -> list[list[int]]:
    """Greedy captions for the projected object sets of a split, in order.

    ``zs[i]`` holds image i's projected object rows, at least one. EOS is
    not emitted.
    """
    if max_len < 1:
        raise DomainError(f"max_len must be >= 1, got {max_len}")
    z_bars = [mean_pool(z) for z in zs]
    captions: list[list[int]] = []
    for start in range(0, len(zs), DECODE_CHUNK):
        stop = start + DECODE_CHUNK
        captions += _greedy_decode_chunk(zs[start:stop], z_bars[start:stop], params, max_len)
    return captions


def _greedy_decode_chunk(
    zs: list[np.ndarray], z_bars: list[np.ndarray], params: ModelParams, max_len: int
) -> list[list[int]]:
    """One padded batch of images; rows leave the active set at EOS."""
    a = params.arrays
    batch = len(zs)
    d = params.config.hidden_size
    counts = np.array([z.shape[0] for z in zs])
    z_pad = np.zeros((batch, int(counts.max()), d))
    for row, z in enumerate(zs):
        z_pad[row, : z.shape[0]] = z
    valid = np.arange(z_pad.shape[1])[None, :] < counts[:, None]
    wx1, w_h, w_z = a["lstm1.wx"], a["att.proj"][:, :d], a["att.proj"][:, d:]
    w_rec = np.concatenate([wx1[:, 2 * d :], a["lstm1.wh"]], axis=1)  # acts on [h2, h1]
    w2 = np.concatenate([a["lstm2.wx"], a["lstm2.wh"]], axis=1)  # acts on [ct, h1, h2]
    # loop invariants, filtered with the state as rows leave
    zz = z_pad @ w_z.T
    pre_z = np.stack(z_bars) @ wx1[:, d : 2 * d].T + a["lstm1.b"]
    u = np.empty(zz.shape)

    h1, c1, h2, c2 = (np.zeros((batch, d)) for _ in range(4))
    y = np.full(batch, BOS_ID)
    active = np.arange(batch)
    tokens = np.zeros((batch, max_len), dtype=np.int64)
    lengths = np.full(batch, max_len)
    for t in range(max_len):
        pre1 = a["embedding"].T[y] @ wx1[:, :d].T
        pre1 += pre_z
        pre1 += np.concatenate([h2, h1], axis=1) @ w_rec.T
        h1, c1, *_ = kernels.lstm_gates_forward(pre1, c1)
        ct, _ = ad._attention(h1 @ w_h.T, zz, z_pad, valid, a["att.score"], u[: active.size])
        pre2 = np.concatenate([ct, h1, h2], axis=1) @ w2.T + a["lstm2.b"]
        h2, c2, *_ = kernels.lstm_gates_forward(pre2, c2)
        probs = numeric.softmax(h2 @ a["out.w"].T + a["out.b"], axis=1)
        y = probs.argmax(axis=1)  # first maximum: ties go to the lowest id
        going = y != EOS_ID
        lengths[active[~going]] = t
        tokens[active[going], t] = y[going]
        if going.all():
            continue
        active, y, h1, c1, h2, c2, pre_z, zz, z_pad, valid = (
            arr[going] for arr in (active, y, h1, c1, h2, c2, pre_z, zz, z_pad, valid)
        )
        if active.size == 0:
            break
    return [tokens[row, : lengths[row]].tolist() for row in range(batch)]


# ---------------------------------------------------------------------------
# batched teacher-forced forward (training path)
# ---------------------------------------------------------------------------

@dataclass
class DropoutPlan:
    rate: float
    rng: np.random.Generator | None

    def masks(self, shape: tuple[int, ...]) -> np.ndarray:
        """Inverted-dropout masks of ``shape``; ones, drawing nothing, at rate 0."""
        if self.rate == 0.0 or self.rng is None:
            return np.ones(shape)
        return (self.rng.random(shape) >= self.rate) / (1.0 - self.rate)


NO_DROPOUT = DropoutPlan(rate=0.0, rng=None)

# The decoder's parameters in the order of ad.teacher_forced_logprob's weights.
DECODER_PARAMS = ("embedding", "lstm1.wx", "lstm1.wh", "lstm1.b", "att.proj", "att.score",
                  "lstm2.wx", "lstm2.wh", "lstm2.b", "out.w", "out.b")


@dataclass
class BatchForward:
    """Everything the loss heads need from one teacher-forced pass."""

    per_example_logprob: Tensor  # (B,) mean log p of each target sequence
    projected_flat: Tensor  # (N, d) projected object rows of the unique images
    flat_labels: np.ndarray  # (N,) class ids aligned with projected_flat


def batch_forward(
    p: dict[str, Tensor],
    cfg: ModelConfig,
    features: list[np.ndarray],
    labels: list[list[int]],
    image_of_example: list[int],
    tokens: list[list[int]],
    dropout_plan: DropoutPlan = NO_DROPOUT,
) -> BatchForward:
    """Teacher-forced mean log-likelihood per (image, caption) example.

    ``features``/``labels`` describe the batch's unique images;
    ``image_of_example[e]`` maps example e to its image, so several
    captions of one image share a single projection.
    """
    batch = len(tokens)
    if batch == 0:
        raise DomainError("empty batch")
    if any(len(t) == 0 for t in tokens):
        raise DomainError("every caption must have at least one target token")

    counts_img = np.array([f.shape[0] for f in features])
    offsets_img = np.concatenate([[0], np.cumsum(counts_img)[:-1]]).astype(np.int64)
    z_flat = ad.linear(Tensor(np.concatenate(features, axis=0)), p["input_proj"])
    counts = counts_img[image_of_example]
    slots = np.arange(counts.max())
    valid = slots[None, :] < counts[:, None]
    rows = np.where(valid, offsets_img[image_of_example][:, None] + slots, 0)

    lengths = np.array([len(t) for t in tokens])
    t_mask = (np.arange(lengths.max())[None, :] < lengths[:, None]).astype(np.float64)
    targets = np.full(t_mask.shape, EOS_ID, dtype=np.int64)
    targets[t_mask > 0] = np.concatenate(tokens)
    if targets.min() < 0 or targets.max() >= cfg.vocab_size:
        raise DomainError(f"token id out of range for vocabulary of size {cfg.vocab_size}")
    inputs = np.full(t_mask.shape, BOS_ID, dtype=np.int64)
    inputs[:, 1:] = targets[:, :-1]

    drop = dropout_plan.masks((t_mask.shape[1], 3, batch, cfg.hidden_size))
    per_example = ad.teacher_forced_logprob(
        z_flat, [p[name] for name in DECODER_PARAMS], rows, valid, inputs, targets, t_mask, drop
    )
    flat_labels = (
        np.concatenate([np.asarray(l, dtype=np.int64) for l in labels])
        if labels
        else np.zeros(0, dtype=np.int64)
    )
    return BatchForward(
        per_example_logprob=per_example,
        projected_flat=z_flat,
        flat_labels=flat_labels,
    )
