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
steps (``teacher_forced_logprob``); its dropout masks are drawn up
front in one call, x, h1, h2 for each step in turn, as a step-by-step pass
would draw them, and kept as booleans: each use multiplies by
``mask * scale``, whose entries are 0 and 1 / (1 - rate).

Inference decodes greedily until EOS or the length cap, argmax ties broken
toward the lowest token id. It runs a split in chunks of DECODE_CHUNK
images: each chunk pads its object sets to one (B, K, d) block, attention
masks the padding out, and a row leaves the batch once it emits EOS. As in
the teacher-forced op, the loop invariants are computed once per chunk: the
attention projection of z and LSTM1's mean(z) term with its bias, mean(z)
for all the chunk's images from one masked sum over the padded block.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import orjson

from . import autodiff as ad
from . import heap, kernels
from .autodiff import Tensor
from .data import BOS_ID, EOS_ID, json_bytes, write_atomic
from .errors import DataValidationError, DomainError, NumericalError, ShapeError

INIT_SCALE = 0.08
FORGET_BIAS = 1.0
CHECKPOINT_VERSION = 1

@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    feature_size: int
    hidden_size: int
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

    def tensors(self) -> dict[str, Tensor]:
        """Each array as an ``autodiff.parameter``, by name: the ``params`` of
        ``autodiff.backward``."""
        return {name: ad.parameter(arr) for name, arr in self.arrays.items()}


def save_checkpoint(params: ModelParams, path: Path, extra: dict | None = None) -> None:
    """Write the checkpoint JSON atomically: a kill or a failed write leaves
    any previous checkpoint at ``path`` intact.

    The bytes are ``data.json_bytes`` of the payload ``{"format_version",
    "model", "params", "extra"}``, where ``params`` maps each array's name to
    ``{"data": flat array, "shape"}``: those of ``json.dumps(payload,
    sort_keys=True)`` with the arrays as lists. A parameter with a NaN or
    infinite entry raises ``NumericalError`` before anything is written:
    JSON has no such number, and every reader would reject the file.
    """
    arrays = sorted(params.arrays.items())
    for name, arr in arrays:
        if not np.isfinite(arr).all():
            raise NumericalError(f"parameter {name} has non-finite entries; {path} not written")
    payload = {"format_version": CHECKPOINT_VERSION, "model": asdict(params.config),
               "params": {name: {"data": arr.ravel(), "shape": arr.shape} for name, arr in arrays}}
    if extra:
        payload["extra"] = extra
    write_atomic(path, json_bytes(payload))


def load_checkpoint(path: Path) -> tuple[ModelParams, dict]:
    """The parameters and the ``extra`` metadata of a checkpoint file.

    ``format_version`` must be the JSON integer 1; ``vocab_size``,
    ``feature_size`` and ``hidden_size`` JSON integers >= 1, and ``att_size``
    such an integer or null. A bool, a float such as ``2.0``, a string such as ``"2"``
    or a size below 1 there is a DataValidationError that names the field. The
    ``data`` arrays are not type-checked: numpy reads ``true`` or ``"0.5"``
    in them as a number, and a type scan of the 127,826 values of the
    benchmark's fixture checkpoint takes about 3.6 ms (2 vCPUs), paid on
    every load (``evaluate`` and ``analyze`` each load the checkpoint).
    """
    try:
        payload = orjson.loads(Path(path).read_bytes())
        version = payload["format_version"]
        if type(version) is not int or version != CHECKPOINT_VERSION:
            raise DataValidationError(
                f"checkpoint format_version must be {CHECKPOINT_VERSION}, got {json.dumps(version)}"
            )
        m = payload["model"]
        header = {name: m[name] for name in ("vocab_size", "feature_size", "hidden_size", "att_size")}
        for name, value in header.items():
            if type(value) is not int and (name != "att_size" or value is not None):
                kind = "an integer or null" if name == "att_size" else "an integer"
                raise DataValidationError(
                    f"checkpoint model.{name} must be {kind}, got {json.dumps(value)}"
                )
            if value is not None and value < 1:
                raise DataValidationError(f"checkpoint model.{name} must be >= 1, got {value}")
        config = ModelConfig(**header)
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
    heap.trim_heap()
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


def _decoder_blocks(a: dict[str, np.ndarray], d: int) -> tuple[np.ndarray, ...]:
    """(w_x, w_zbar, w_rec, w_h, w_z, w2): views of LSTM1's x and mean(z)
    input columns and of attention's h1 and z columns, and the recurrent
    matrices acting on [h2, h1] and [ct, h1, h2]. Training and greedy
    decoding both take their GEMM operands from here."""
    wx1, proj = a["lstm1.wx"], a["att.proj"]
    w_rec = np.concatenate([wx1[:, 2 * d :], a["lstm1.wh"]], axis=1)
    w2 = np.concatenate([a["lstm2.wx"], a["lstm2.wh"]], axis=1)
    return wx1[:, :d], wx1[:, d : 2 * d], w_rec, proj[:, :d], proj[:, d:], w2


# Images per greedy-decode pass. Larger chunks are a little faster: on the
# 500-image test split of the benchmark's eval-checkpoint workload (2 vCPUs,
# BLAS 1 thread), one greedy_decode took 32.6 ms at 100, 29.9 ms at 250 and
# 29.8 ms at 500. The size stays at 100 because it is part of the decoder's
# bit contract. OpenBLAS can give a row other bits in a GEMM of few rows
# than in a larger one (rows 1 to 4 of a (rows, 64) x (64, 256) product),
# and the chunk sets the row count of every GEMM. Tokens were identical at
# all three sizes on every split tried, but that is not guaranteed.
DECODE_CHUNK = 100


def greedy_decode(zs: list[np.ndarray], params: ModelParams, max_len: int) -> list[list[int]]:
    """Greedy captions for the projected object sets of a split, in order.

    ``zs[i]`` holds image i's projected object rows, at least one. EOS is
    not emitted.
    """
    if max_len < 1:
        raise DomainError(f"max_len must be >= 1, got {max_len}")
    counts = np.fromiter(map(len, zs), np.int64, len(zs))
    if len(zs) and counts.min() < 1:
        raise DomainError("every image needs at least one object vector")
    captions: list[list[int]] = []
    for start in range(0, len(zs), DECODE_CHUNK):
        stop = start + DECODE_CHUNK
        captions += _greedy_decode_chunk(zs[start:stop], counts[start:stop], params, max_len)
    return captions


def _padded_objects(
    zs: list[np.ndarray], counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The object sets as one zero-padded (B, K, d) block, its (B, K) mask
    of real rows and each image's mean row z_bar.

    The masked reduction adds each image's rows in order from +0.0, as
    ``mean`` along the rows of one image does, so z_bar has the same bits.
    """
    valid = np.arange(counts.max())[None, :] < counts[:, None]
    z_pad = np.zeros(valid.shape + (zs[0].shape[1],))
    z_pad[valid] = np.concatenate(zs)
    z_bar = np.add.reduce(z_pad, axis=1, where=valid[..., None]) / counts[:, None]
    return z_pad, valid, z_bar


def _greedy_decode_chunk(
    zs: list[np.ndarray], counts: np.ndarray, params: ModelParams, max_len: int
) -> list[list[int]]:
    """One padded batch of images; rows leave the active set at EOS."""
    a = params.arrays
    batch = len(zs)
    d = params.config.hidden_size
    z_pad, valid, z_bar = _padded_objects(zs, counts)
    w_x, w_zbar, w_rec, w_h, w_z, w2 = _decoder_blocks(a, d)
    # loop invariants, filtered with the state as rows leave
    zz = z_pad @ w_z.T
    pre_z = z_bar @ w_zbar.T + a["lstm1.b"]
    u = np.empty(zz.shape)

    h1, c1, h2, c2 = (np.zeros((batch, d)) for _ in range(4))
    y = np.full(batch, BOS_ID)
    active = np.arange(batch)
    tokens = np.zeros((batch, max_len), dtype=np.int64)
    lengths = np.full(batch, max_len)
    for t in range(max_len):
        pre1 = a["embedding"].T[y] @ w_x.T
        pre1 += pre_z
        pre1 += np.concatenate([h2, h1], axis=1) @ w_rec.T
        h1, c1, _ = kernels.lstm_gates_forward(pre1, c1)
        ct, _ = kernels.attention_forward(h1 @ w_h.T, zz, z_pad, valid, a["att.score"], u[: active.size])
        pre2 = np.concatenate([ct, h1, h2], axis=1) @ w2.T + a["lstm2.b"]
        h2, c2, _ = kernels.lstm_gates_forward(pre2, c2)
        probs = kernels.softmax(h2 @ a["out.w"].T + a["out.b"], axis=1)
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

# teacher_forced_logprob's parameters, in the order of its node's parents after z
_DECODER_PARAMS = ("embedding", "lstm1.wx", "lstm1.wh", "lstm1.b", "att.proj", "att.score",
                   "lstm2.wx", "lstm2.wh", "lstm2.b", "out.w", "out.b")


def teacher_forced_logprob(
    z_flat: Tensor,
    p: dict[str, Tensor],
    rows: np.ndarray,
    valid: np.ndarray,
    inputs: np.ndarray,
    targets: np.ndarray,
    t_mask: np.ndarray,
    drop: np.ndarray,
    dropout: float,
) -> Tensor:
    """Mean log-probability of each target sequence under the decoder with
    the parameters ``p``, teacher-forced, as one node. Example b attends over
    ``z_flat[rows[b, k]]`` where ``valid[b, k]``; ``inputs``, ``targets``,
    ``t_mask`` are (B, T) and ``drop`` the (T, 3, B, d) boolean keep-masks
    of x, h1 and h2 at rate ``dropout``; each use multiplies by ``mask *
    scale`` with ``scale = True / (1 - dropout)``, whose entries are exactly
    0 and 1 / (1 - dropout). Following Appleyard et al. (arXiv 1604.01946),
    the attention projection of z, the input GEMMs of LSTM1, the output
    layer and every weight gradient run once over all steps, not once per
    step. The backward releases each forward cache right after its last
    read.
    """
    a = {name: p[name].data for name in _DECODER_PARAMS}
    emb, wav, w_out = a["embedding"], a["att.score"], a["out.w"]
    n, steps = inputs.shape
    d, att = a["lstm1.wh"].shape[1], wav.shape[0]
    w_x, w_zbar, w_rec, w_h, w_z, w2 = _decoder_blocks(a, d)
    z = z_flat.data[rows]
    z[~valid] = 0.0
    inv_count = 1.0 / valid.sum(axis=1)
    z_bar = z.sum(axis=1) * inv_count[:, None]
    zz = z @ w_z.T
    scale = True / (1 - dropout)
    x = emb.T[inputs.T] * (drop[:, 0] * scale)  # (T, B, d)
    # Row t of gates1 and gates2: step t's pre-activations, which the gate
    # kernels overwrite with the activations [i f o g], then with d(pre).
    gates1 = (x.reshape(-1, d) @ w_x.T).reshape(steps, n, 4 * d)
    gates1 += z_bar @ w_zbar.T + a["lstm1.b"]
    gates2 = np.empty((steps, n, 4 * d))

    # per-step inputs of the recurrent GEMMs, kept for the weight gradients
    rec = np.zeros((steps, n, 2 * d))
    in2 = np.zeros((steps, n, 3 * d))
    h2_fed = np.empty((steps, n, d))
    us = np.empty((steps,) + zz.shape)
    alphas = np.empty((steps,) + valid.shape)
    cells1, cells2 = np.zeros((2, steps + 1, n, d))  # row t: the cell state entering step t
    tanh_c1, tanh_c2 = [], []  # tanh of the cell state leaving each step
    for t in range(steps):
        if t:  # the recurrent inputs, from step t - 1
            rec[t] = np.concatenate([h2_fed[t - 1], h1], axis=1)
            in2[t, :, 2 * d :] = h2
            gates1[t] += rec[t] @ w_rec.T
        h1, cells1[t + 1], tc = kernels.lstm_gates_forward(gates1[t], cells1[t])
        tanh_c1.append(tc)
        in2[t, :, d : 2 * d] = h1 * (drop[t, 1] * scale)
        in2[t, :, :d], alphas[t] = kernels.attention_forward(
            in2[t, :, d : 2 * d] @ w_h.T, zz, z, valid, wav, us[t]
        )
        np.add(in2[t] @ w2.T, a["lstm2.b"], out=gates2[t])
        h2, cells2[t + 1], tc = kernels.lstm_gates_forward(gates2[t], cells2[t])
        tanh_c2.append(tc)
        h2_fed[t] = h2 * (drop[t, 2] * scale)

    logp = kernels.log_softmax(h2_fed.reshape(-1, d) @ w_out.T + a["out.b"], axis=1)
    picks = (np.arange(steps * n), targets.T.ravel())
    inv_len = 1.0 / t_mask.sum(axis=1)
    out = (logp[picks].reshape(steps, n) * t_mask.T).sum(axis=0) * inv_len

    def bwd(g):
        nonlocal us, rec, x, gates1, gates2, in2, cells1, cells2
        dlp = ((g * inv_len) * t_mask.T).ravel()
        dlogits = np.exp(logp) * -dlp[:, None]
        dlogits[picks] += dlp
        dh2_out = (dlogits @ w_out).reshape(steps, n, d)
        dct = np.empty((steps, n, d))
        dhh = np.empty((steps, n, att))
        des = np.empty(alphas.shape)
        dpre, datt = np.zeros((2,) + us.shape[1:])  # d(tanh input): one step, summed over steps
        dh2_fed = dh1_rec = dh2_rec = dc1 = dc2 = np.zeros((n, d))
        # t runs backwards: the gate kernel writes step t's dpre over its
        # activations, and pop() frees its tanh(c) once used
        for t in reversed(range(steps)):
            dh2 = (dh2_out[t] + dh2_fed) * (drop[t, 2] * scale) + dh2_rec
            dc2 = kernels.lstm_gates_backward(dh2, dc2, gates2[t], tanh_c2.pop(), cells2[t])
            dct[t], dh1_fed, dh2_rec = np.split(gates2[t] @ w2, 3, axis=1)
            des[t] = kernels.attention_backward(dct[t], z, us[t], alphas[t], wav, dpre)
            datt += dpre
            dhh[t] = dpre.sum(axis=1)
            dh1 = (dh1_fed + dhh[t] @ w_h) * (drop[t, 1] * scale) + dh1_rec
            dc1 = kernels.lstm_gates_backward(dh1, dc1, gates1[t], tanh_c1.pop(), cells1[t])
            dh2_fed, dh1_rec = np.split(gates1[t] @ w_rec, 2, axis=1)
        del cells1, cells2, dh2_out

        # gates1 and gates2 now hold dpre; each cache goes after its last read
        dwav = des.ravel() @ us.reshape(-1, att)
        del us
        flat1 = gates1.reshape(-1, 4 * d)
        sum1 = gates1.sum(axis=0)
        dw_rec = flat1.T @ rec.reshape(-1, 2 * d)
        del rec
        dwx1 = np.concatenate([flat1.T @ x.reshape(-1, d), sum1.T @ z_bar, dw_rec[:, :d]], axis=1)
        del x
        dx = (flat1 @ w_x) * (drop[:, 0] * scale).reshape(-1, d)
        del flat1, gates1
        flat2 = gates2.reshape(-1, 4 * d)
        dw2 = flat2.T @ in2.reshape(-1, 3 * d)
        db2 = flat2.sum(axis=0)
        del flat2, gates2
        dw_h = dhh.reshape(-1, att).T @ in2[:, :, d : 2 * d].reshape(-1, d)
        del in2
        demb = np.ascontiguousarray(kernels.scatter_rows(inputs.T.ravel(), dx, emb.shape[1]).T)
        dw_z = datt.reshape(-1, att).T @ z.reshape(-1, d)
        dz = alphas.transpose(1, 2, 0) @ dct.transpose(1, 0, 2) + datt @ w_z
        dz += ((sum1 @ w_zbar) * inv_count[:, None])[:, None, :]
        dz_flat = kernels.scatter_rows(rows[valid], dz[valid], len(z_flat.data))
        return (
            dz_flat, demb, dwx1, dw_rec[:, d:], sum1.sum(axis=0),
            np.concatenate([dw_h, dw_z], axis=1), dwav,
            dw2[:, : 2 * d], dw2[:, 2 * d :], db2,
            dlogits.T @ h2_fed.reshape(-1, d), dlogits.sum(axis=0),
        )

    return ad.node(out, (z_flat, *(p[name] for name in _DECODER_PARAMS)), bwd)


def batch_forward(
    p: dict[str, Tensor],
    cfg: ModelConfig,
    features: list[np.ndarray],
    image_of_example: list[int],
    tokens: list[list[int]],
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    """Teacher-forced mean log-likelihood per (image, caption) example, and
    the (N, d) projected object rows of the batch's unique images.

    ``features`` holds the unique images' object rows; ``image_of_example[e]``
    maps example e to its image, so several captions of one image share a
    single projection. At a ``dropout`` rate above 0 the inverted-dropout
    masks are the booleans of one ``rng.random`` call; at rate 0 nothing is
    drawn and every entry is kept.
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

    shape = (t_mask.shape[1], 3, batch, cfg.hidden_size)
    drop = np.ones(shape, bool) if dropout == 0.0 else rng.random(shape) >= dropout
    out = teacher_forced_logprob(z_flat, p, rows, valid, inputs, targets, t_mask, drop, dropout)
    return out, z_flat
