"""Training loop, evaluation and the four-variant experiment matrix.

A run's state is one ``TrainState``: what it trains on, and what each
step hands to the next. One optimizer step (``_train_step``):
teacher-forced forward over a batch of (image, caption) pairs,
cross-entropy plus the enabled grounding losses on one tape, backward,
global-norm gradient clipping, Adam update. The learning rate decays by a
fixed factor every ``lr_decay_every`` steps. One epoch (``_run_epoch``):
a shuffle, a step per batch, then the validation split is greedy-decoded
and scored with CIDEr; the best-scoring parameters are checkpointed.
``train`` runs epochs until ``max_epochs``, or until the score has not
improved for ``patience`` epochs.

Everything is deterministic given the config seed: parameter init and the
per-epoch shuffle draw from rng streams derived from it, and so do
dropout and the two loss samplers, whose streams are fields of the
``TrainState``. The wall_ms column of the convergence log is the one
intentionally non-reproducible field.

Validation (``split_cider``) and ``evaluate`` both decode through
``analysis.decode_corpus``. The matrix decodes each run's test split once,
in ``evaluate``, and hands the table's CIDEr to ``analyze``.

Run directory layout: config.json (snapshot), convergence.csv,
checkpoint_best.json, and for matrix runs metrics.json, analysis.json,
vectors.jsonl.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import heap
from .analysis import (
    DEFAULT_NEIGHBOR_K,
    analyze,
    check_neighbor_k_option,
    decode_corpus,
    split_cider,
    write_vector_export,
)
from .data import (
    RESERVED,
    Dataset,
    ImageExample,
    Vocabulary,
    build_vocabulary,
    encode_caption,
    json_array,
    write_atomic,
)
from .errors import ConfigError, DataValidationError, NumericalError
from .losses import (
    build_projection_pool,
    batch_cross_entropy,
    cluster_loss,
    perceptual_loss,
    sample_pairs,
    sample_triplets,
    total_loss,
)
from .metrics import metric_table
from .model import (
    ModelConfig,
    ModelParams,
    batch_forward,
    greedy_decode,  # noqa: F401  unused here; perfbench/tracing.py wraps this name
    load_checkpoint,
    save_checkpoint,
)

log = logging.getLogger(__name__)

CSV_HEADER = "epoch,step,l_xe,l_c,l_p,total,lr,val_cider,wall_ms"

MATRIX_VARIANTS = (
    ("baseline", False, False),
    ("cluster", True, False),
    ("perceptual", False, True),
    ("cluster+perceptual", True, True),
)


@dataclass(frozen=True)
class TrainConfig:
    # model
    hidden_size: int = 512
    att_size: int | None = None
    # preprocessing
    min_count: int = 5
    max_len: int = 16
    # optimization
    batch_size: int = 100
    learning_rate: float = 2e-3
    lr_decay: float = 0.8
    lr_decay_every: int = 6000
    grad_clip_norm: float = 1.0
    dropout: float = 0.2
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    # schedule
    patience: int = 10
    max_epochs: int = 200
    # grounding losses
    use_cluster_loss: bool = False
    use_perceptual_loss: bool = False
    margin: float = 0.5
    cluster_weight: float = 1.0
    perceptual_weight: float = 1.0
    sample_size: int = 500
    # reproducibility
    seed: int = 0

    def validate(self) -> None:
        for f in fields(self):  # the comparisons below let NaN and infinities through
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        positive = {
            "hidden_size": self.hidden_size,
            "min_count": self.min_count,
            "max_len": self.max_len,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "lr_decay": self.lr_decay,
            "lr_decay_every": self.lr_decay_every,
            "grad_clip_norm": self.grad_clip_norm,
            "adam_eps": self.adam_eps,
            "max_epochs": self.max_epochs,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 < self.adam_beta1 < 1.0 or not 0.0 < self.adam_beta2 < 1.0:
            raise ConfigError("adam betas must be in (0, 1)")
        if self.margin < 0:
            raise ConfigError(f"margin must be >= 0, got {self.margin}")
        if self.sample_size < 1:
            raise ConfigError(f"sample_size must be >= 1, got {self.sample_size}")
        if self.cluster_weight < 0 or self.perceptual_weight < 0:
            raise ConfigError("loss weights must be >= 0")
        if self.att_size is not None and self.att_size < 1:
            raise ConfigError(f"att_size must be none or >= 1, got {self.att_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def grounding_enabled(self) -> bool:
        return self.use_cluster_loss or self.use_perceptual_loss


@dataclass
class LogRow:
    epoch: int
    step: int
    l_xe: float
    l_c: float
    l_p: float
    total: float
    lr: float
    val_cider: float | None
    wall_ms: int

    def as_csv(self) -> str:
        val = "" if self.val_cider is None else repr(self.val_cider)
        return (
            f"{self.epoch},{self.step},{self.l_xe!r},{self.l_c!r},{self.l_p!r},"
            f"{self.total!r},{self.lr!r},{val},{self.wall_ms}"
        )


def write_convergence_csv(rows: list[LogRow], path: Path) -> None:
    lines = [CSV_HEADER] + [row.as_csv() for row in rows]
    write_atomic(path, "".join(line + "\n" for line in lines))


class Adam:
    """Adam with bias correction; the learning rate is supplied per step."""

    def __init__(self, shapes: dict[str, tuple], beta1: float, beta2: float, eps: float):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros(s) for k, s in shapes.items()}
        self.v = {k: np.zeros(s) for k, s in shapes.items()}

    def step(self, arrays: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            arrays[name] -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def learning_rate_at(config: TrainConfig, completed_steps: int) -> float:
    return config.learning_rate * config.lr_decay ** (completed_steps // config.lr_decay_every)


def _feature_size(examples: list[ImageExample]) -> int:
    sizes = {ex.features.shape[1] for ex in examples}
    if len(sizes) != 1:
        raise DataValidationError(f"inconsistent feature sizes across images: {sorted(sizes)}")
    return sizes.pop()


def _training_pairs(
    examples: list[ImageExample], vocab: Vocabulary, max_len: int
) -> list[tuple[int, list[int]]]:
    pairs = []
    for idx, ex in enumerate(examples):
        if not ex.captions:
            raise DataValidationError(f"training image {ex.image_id} has no captions")
        for caption in ex.captions:
            pairs.append((idx, encode_caption(caption, vocab, max_len)))
    return pairs


@dataclass
class TrainState:
    """One training run: what it trains on, and what each step and epoch
    hands to the next. ``train`` returns it; ``params`` are the last step's
    parameters and ``best_params`` those of the best validation epoch."""

    config: TrainConfig
    vocab: Vocabulary
    train_examples: list[ImageExample] = field(repr=False)
    pairs: list[tuple[int, list[int]]] = field(repr=False)  # (image index, encoded caption)
    class_tokens: dict[int, list[int]] | None = field(repr=False)
    unk_id: int
    params: ModelParams = field(repr=False)
    optimizer: Adam = field(repr=False)
    # one stream per consumer, so toggling a loss never moves another's draws
    dropout_rng: np.random.Generator = field(repr=False)
    triplet_rng: np.random.Generator = field(repr=False)
    pair_rng: np.random.Generator = field(repr=False)
    best_params: ModelParams = field(repr=False)
    best_val_cider: float = -np.inf
    best_epoch: int = 0
    stale_epochs: int = 0  # epochs since the last improvement
    total_steps: int = 0
    epochs_run: int = 0
    rows: list[LogRow] = field(default_factory=list, repr=False)
    started: float = field(default_factory=time.monotonic, repr=False)


def _train_step(state: TrainState, batch: list[tuple[int, list[int]]]) -> None:
    """One optimizer step on ``batch``; appends its row to ``state.rows``."""
    config = state.config
    lr = learning_rate_at(config, state.total_steps)
    p = state.params.tensors()

    position: dict[int, int] = {}  # image index -> its place among the batch's images
    image_of_example = [position.setdefault(img_idx, len(position)) for img_idx, _ in batch]
    images = [state.train_examples[img_idx] for img_idx in position]
    per_example, z_flat = batch_forward(
        p, state.params.config, [ex.features for ex in images], image_of_example,
        [seq for _, seq in batch], config.dropout, state.dropout_rng,
    )
    l_xe = batch_cross_entropy(per_example)
    l_c = None
    l_p = None
    if config.grounding_enabled:
        labels = np.concatenate([ex.labels for ex in images])
        pool = build_projection_pool(z_flat, labels, state.unk_id)
        picks = []  # the samplers read no cosine: draw, then one op for every head
        if config.use_cluster_loss:
            a, pos, neg = sample_triplets(pool, config.sample_size, state.triplet_rng)
            picks += [(a, pos), (a, neg)]
        if config.use_perceptual_loss:
            pairs = sample_pairs(pool, config.sample_size, state.pair_rng)
            picks.append(pairs)
        cosines = pool.cosines(picks)
        if config.use_cluster_loss:
            l_c = cluster_loss(cosines[0], cosines[1], config.margin)
        if config.use_perceptual_loss:
            l_p = perceptual_loss(pool, pairs, cosines[-1], p["embedding"], state.class_tokens)
    total = total_loss(l_xe, l_c, l_p, config.cluster_weight, config.perceptual_weight)
    if not np.isfinite(total.data):
        raise NumericalError(f"non-finite loss at step {state.total_steps + 1}")

    grads = ad.backward(total, p)
    # An infinite gradient under a finite loss would be scaled by 0 into NaN
    # and reach the parameters through Adam; stop at the step that made it.
    if not math.isfinite(clip_global_norm(grads, config.grad_clip_norm)):
        raise NumericalError(f"non-finite gradient at step {state.total_steps + 1}")
    state.optimizer.step(state.params.arrays, grads, lr)
    state.total_steps += 1
    state.rows.append(
        LogRow(
            epoch=state.epochs_run,
            step=state.total_steps,
            l_xe=float(l_xe.data),
            l_c=float(l_c.data) if l_c is not None else 0.0,
            l_p=float(l_p.data) if l_p is not None else 0.0,
            total=float(total.data),
            lr=lr,
            val_cider=None,
            wall_ms=int((time.monotonic() - state.started) * 1000),
        )
    )


def _run_epoch(state: TrainState, val: list[ImageExample], run_dir: Path | None) -> None:
    """One shuffle of the training pairs and a step per batch, then the
    validation CIDEr: logged, flushed to the run directory, and checkpointed
    when it beats the best so far."""
    config = state.config
    state.epochs_run += 1
    epoch = state.epochs_run
    order = np.random.default_rng([config.seed, 4, epoch]).permutation(len(state.pairs))
    with np.errstate(over="ignore", invalid="ignore"):  # the step's finite checks name it
        for start in range(0, len(order), config.batch_size):
            _train_step(state, [state.pairs[i] for i in order[start : start + config.batch_size]])
    val_cider = split_cider(state.params, val, state.vocab, config.max_len, "val")
    state.rows[-1].val_cider = val_cider
    # Every epoch, so that a run killed later still leaves its log.
    if run_dir is not None:
        write_convergence_csv(state.rows, run_dir / "convergence.csv")
    log.info(
        "epoch %d: step %d, l_xe %.4f, val CIDEr %.2f",
        epoch, state.total_steps, state.rows[-1].l_xe, val_cider,
    )
    if val_cider > state.best_val_cider:
        state.best_val_cider = val_cider
        state.best_params = state.params.copy()
        state.best_epoch = epoch
        state.stale_epochs = 0
        if run_dir is not None:
            save_checkpoint(
                state.best_params,
                run_dir / "checkpoint_best.json",
                extra=_checkpoint_extra(config, state.vocab, epoch, val_cider),
            )
    else:
        state.stale_epochs += 1


def train(config: TrainConfig, dataset: Dataset, run_dir: Path | None = None) -> TrainState:
    """Optimize on the train split with early stopping on validation CIDEr.

    Training first tells glibc to keep the process's heap (``heap.keep_heap``),
    so that every step reuses the pages of the step before instead of
    faulting them in again. The setting holds for the rest of the process,
    so later ``train`` calls, such as the runs of ``run_experiment_matrix``,
    and whatever else the process does keep their freed memory too.
    """
    config.validate()
    if not dataset.train:
        raise DataValidationError("training needs a non-empty train split")
    if len(dataset.val) < 2:
        raise DataValidationError(
            "training needs >= 2 validation images (CIDEr early stopping)"
        )
    heap.keep_heap()
    if run_dir is not None:
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        write_atomic(run_dir / "config.json", json.dumps(asdict(config), sort_keys=True) + "\n")

    vocab = build_vocabulary(
        [c for ex in dataset.train for c in ex.captions], min_count=config.min_count
    )
    class_tokens = None
    unk_id = dataset.class_table.unk_id
    if config.grounding_enabled:
        class_tokens = dataset.class_table.label_token_ids(vocab)
        if all((ex.labels == unk_id).all() for ex in dataset.train):
            raise ConfigError("grounding losses enabled but every training label is UNK")

    model_config = ModelConfig(
        vocab_size=vocab.size,
        feature_size=_feature_size(dataset.train + dataset.val + dataset.test),
        hidden_size=config.hidden_size,
        att_size=config.att_size,
    )
    params = ModelParams.init(model_config, np.random.default_rng([config.seed, 0]))
    state = TrainState(
        config=config,
        vocab=vocab,
        train_examples=dataset.train,
        pairs=_training_pairs(dataset.train, vocab, config.max_len),
        class_tokens=class_tokens,
        unk_id=unk_id,
        params=params,
        optimizer=Adam(
            {k: v.shape for k, v in params.arrays.items()},
            config.adam_beta1,
            config.adam_beta2,
            config.adam_eps,
        ),
        dropout_rng=np.random.default_rng([config.seed, 1]),
        triplet_rng=np.random.default_rng([config.seed, 2]),
        pair_rng=np.random.default_rng([config.seed, 3]),
        best_params=params.copy(),
    )
    try:
        while state.epochs_run < config.max_epochs and state.stale_epochs < config.patience:
            _run_epoch(state, dataset.val, run_dir)
    except NumericalError:
        if run_dir is not None:
            write_convergence_csv(state.rows, run_dir / "convergence.csv")
        raise
    return state


def _checkpoint_extra(config: TrainConfig, vocab: Vocabulary, epoch: int, val_cider: float) -> dict:
    return {
        "train_config": asdict(config),
        "vocab_tokens": list(vocab.tokens),
        "epoch": epoch,
        "val_cider": val_cider,
    }


def vocab_from_checkpoint_extra(extra: dict) -> Vocabulary:
    """The checkpoint's vocabulary: unique token strings, the reserved
    tokens first."""
    tokens = extra.get("vocab_tokens")
    if not tokens:
        raise DataValidationError("checkpoint lacks the vocabulary needed for decoding")
    tokens = tuple(json_array(tokens, "string", "checkpoint vocab_tokens"))
    if tokens[: len(RESERVED)] != RESERVED:
        raise DataValidationError(f"checkpoint vocab_tokens must start with {list(RESERVED)}")
    if len(set(tokens)) != len(tokens):
        raise DataValidationError("checkpoint vocab_tokens holds a token more than once")
    return Vocabulary(tokens=tokens, index={t: i for i, t in enumerate(tokens)})


def evaluate(
    params: ModelParams,
    examples: list[ImageExample],
    vocab: Vocabulary,
    max_len: int,
    split: str = "test",
) -> dict[str, float]:
    """Greedy-decode a split and emit the 100-scaled metric row."""
    return metric_table(decode_corpus(params, examples, vocab, max_len, split))


def run_experiment_matrix(
    base_config: TrainConfig,
    dataset: Dataset,
    seeds: list[int],
    out_dir: Path,
    neighbor_k: int = DEFAULT_NEIGHBOR_K,
) -> dict:
    """Train baseline, +cluster, +perceptual and +both for every seed.

    Writes per-run directories plus combined metric and structure reports,
    and returns the combined bundle. A bad config, a repeated seed or a
    ``neighbor_k`` that ``analyze`` would reject is a ConfigError before any
    write, and a test split of fewer than 3 labelled classes, which
    ``analyze`` cannot correlate, a DomainError.
    """
    for seed in seeds:
        replace(base_config, seed=seed).validate()
        if seeds.count(seed) > 1:
            raise ConfigError(f"seed {seed} appears more than once")
    check_neighbor_k_option(neighbor_k, dataset.test, dataset.class_table.unk_id)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metric_rows = []
    analysis_rows = []
    run_summaries = []
    for seed in seeds:
        for name, use_c, use_p in MATRIX_VARIANTS:
            config = replace(
                base_config,
                use_cluster_loss=use_c,
                use_perceptual_loss=use_p,
                seed=seed,
            )
            run_dir = out_dir / f"{name.replace('+', '_')}_seed{seed}"
            result = train(config, dataset, run_dir=run_dir)
            table = evaluate(result.best_params, dataset.test, result.vocab, config.max_len)
            report, exports = analyze(
                result.best_params,
                dataset.test,
                dataset.class_table,
                result.vocab,
                cider=table["CIDEr"],
                neighbor_k=neighbor_k,
            )
            write_atomic(run_dir / "metrics.json", json.dumps(table, sort_keys=True) + "\n")
            write_atomic(run_dir / "analysis.json", report.to_json() + "\n")
            write_vector_export(exports, run_dir / "vectors.jsonl")
            metric_rows.append({"variant": name, "seed": seed, **table})
            analysis_rows.append({"variant": name, "seed": seed, **asdict(report)})
            run_summaries.append(
                {
                    "variant": name,
                    "seed": seed,
                    "total_steps": result.total_steps,
                    "epochs_run": result.epochs_run,
                    "best_epoch": result.best_epoch,
                    "best_val_cider": result.best_val_cider,
                }
            )
            log.info(
                "matrix run %s seed %d: %d steps, best val CIDEr %.2f",
                name, seed, result.total_steps, result.best_val_cider,
            )
    bundle = {
        "metrics": metric_rows,
        "analysis": analysis_rows,
        "runs": run_summaries,
        "seeds": list(seeds),
    }
    write_atomic(out_dir / "matrix_metrics.json", json.dumps(metric_rows, indent=2, sort_keys=True) + "\n")
    write_atomic(out_dir / "matrix_analysis.json", json.dumps(analysis_rows, indent=2, sort_keys=True) + "\n")
    write_atomic(out_dir / "matrix_runs.json", json.dumps(run_summaries, indent=2, sort_keys=True) + "\n")
    return bundle


def load_for_inference(checkpoint_path: Path) -> tuple[ModelParams, Vocabulary, int]:
    """Checkpoint, the vocabulary stored alongside it and its decode length.

    The vocabulary must have one token per row of the output layer, and
    ``train_config`` must be a JSON object whose ``max_len`` is an integer
    >= 1; anything else is a DataValidationError.
    """
    params, extra = load_checkpoint(checkpoint_path)
    if type(extra) is not dict:
        raise DataValidationError("checkpoint extra must be a JSON object")
    vocab = vocab_from_checkpoint_extra(extra)
    if vocab.size != params.config.vocab_size:
        raise DataValidationError(
            f"checkpoint vocabulary has {vocab.size} tokens, its model "
            f"{params.config.vocab_size}"
        )
    config = extra.get("train_config")
    if type(config) is not dict:
        raise DataValidationError("checkpoint train_config must be a JSON object")
    max_len = config.get("max_len")
    if type(max_len) is not int or max_len < 1:
        raise DataValidationError(
            f"checkpoint train_config.max_len must be an integer >= 1, got {max_len!r}"
        )
    return params, vocab, max_len
