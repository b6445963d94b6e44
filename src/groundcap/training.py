"""Training loop, evaluation and the four-variant experiment matrix.

One optimizer step: teacher-forced forward over a batch of
(image, caption) pairs, cross-entropy plus the enabled grounding losses
on one tape, backward, global-norm gradient clipping, Adam update. The
learning rate decays by a fixed factor every ``lr_decay_every`` steps.
After each epoch the validation split is greedy-decoded and scored with
CIDEr; the best-scoring parameters are checkpointed and training stops
once the score has not improved for ``patience`` epochs.

Everything is deterministic given the config seed: parameter init,
dropout, the two loss samplers and the per-epoch shuffle each own an rng
stream derived from it. The wall_ms column of the convergence log is the
one intentionally non-reproducible field.

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
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .analysis import analyze, decode_corpus, split_cider, write_vector_export
from .autodiff import GradientTape
from .data import Dataset, ImageExample, Vocabulary, build_vocabulary, encode_caption, write_atomic
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
    DropoutPlan,
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


@dataclass
class TrainResult:
    params: ModelParams  # best-validation parameters
    vocab: Vocabulary
    config: TrainConfig
    best_val_cider: float
    best_epoch: int
    epochs_run: int
    total_steps: int
    rows: list[LogRow] = field(repr=False)


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


@dataclass
class _Streams:
    dropout: np.random.Generator
    triplets: np.random.Generator
    pairs: np.random.Generator

    @classmethod
    def for_seed(cls, seed: int) -> "_Streams":
        return cls(
            dropout=np.random.default_rng([seed, 1]),
            triplets=np.random.default_rng([seed, 2]),
            pairs=np.random.default_rng([seed, 3]),
        )


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


def _train_step(
    params: ModelParams,
    optimizer: Adam,
    train_examples: list[ImageExample],
    batch: list[tuple[int, list[int]]],
    config: TrainConfig,
    class_tokens: dict[int, list[int]] | None,
    unk_id: int,
    streams: _Streams,
    completed_steps: int,
) -> tuple[float, float, float, float, float]:
    lr = learning_rate_at(config, completed_steps)
    tape = GradientTape()
    p = params.tensors(tape)

    position: dict[int, int] = {}
    feats: list[np.ndarray] = []
    labels: list[list[int]] = []
    image_of_example: list[int] = []
    tokens: list[list[int]] = []
    for img_idx, seq in batch:
        if img_idx not in position:
            position[img_idx] = len(feats)
            feats.append(train_examples[img_idx].features)
            labels.append(train_examples[img_idx].labels)
        image_of_example.append(position[img_idx])
        tokens.append(seq)

    out = batch_forward(
        p,
        params.config,
        feats,
        labels,
        image_of_example,
        tokens,
        dropout_plan=DropoutPlan(rate=config.dropout, rng=streams.dropout),
    )
    l_xe = batch_cross_entropy(out.per_example_logprob)
    l_c = None
    l_p = None
    if config.grounding_enabled:
        pool = build_projection_pool(out.projected_flat, out.flat_labels, unk_id)
        if config.use_cluster_loss:
            triplets = sample_triplets(pool, config.sample_size, streams.triplets)
            l_c = cluster_loss(pool, triplets, config.margin)
        if config.use_perceptual_loss:
            pairs = sample_pairs(pool, config.sample_size, streams.pairs)
            l_p = perceptual_loss(pool, pairs, p["embedding"], class_tokens)
    total = total_loss(l_xe, l_c, l_p, config.cluster_weight, config.perceptual_weight)
    if not np.isfinite(total.data):
        raise NumericalError(f"non-finite loss at step {completed_steps + 1}")

    grads = ad.backward(tape, total)
    clip_global_norm(grads, config.grad_clip_norm)
    optimizer.step(params.arrays, grads, lr)
    return (
        float(l_xe.data),
        float(l_c.data) if l_c is not None else 0.0,
        float(l_p.data) if l_p is not None else 0.0,
        float(total.data),
        lr,
    )


def train(config: TrainConfig, dataset: Dataset, run_dir: Path | None = None) -> TrainResult:
    """Optimize on the train split with early stopping on validation CIDEr."""
    config.validate()
    if not dataset.train:
        raise DataValidationError("training needs a non-empty train split")
    if len(dataset.val) < 2:
        raise DataValidationError(
            "training needs >= 2 validation images (CIDEr early stopping)"
        )
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
        if all(l == unk_id for ex in dataset.train for l in ex.labels):
            raise ConfigError("grounding losses enabled but every training label is UNK")

    model_config = ModelConfig(
        vocab_size=vocab.size,
        feature_size=_feature_size(dataset.train + dataset.val + dataset.test),
        hidden_size=config.hidden_size,
        att_size=config.att_size,
    )
    params = ModelParams.init(model_config, np.random.default_rng([config.seed, 0]))
    optimizer = Adam(
        {k: v.shape for k, v in params.arrays.items()},
        config.adam_beta1,
        config.adam_beta2,
        config.adam_eps,
    )
    streams = _Streams.for_seed(config.seed)
    pairs = _training_pairs(dataset.train, vocab, config.max_len)

    rows: list[LogRow] = []
    best_cider = -np.inf
    best_params = params.copy()
    best_epoch = 0
    epochs_without_improvement = 0
    steps = 0
    started = time.monotonic()
    epoch = 0

    def flush_log():
        if run_dir is not None:
            write_convergence_csv(rows, run_dir / "convergence.csv")

    try:
        for epoch in range(1, config.max_epochs + 1):
            order = np.random.default_rng([config.seed, 4, epoch]).permutation(len(pairs))
            for start in range(0, len(pairs), config.batch_size):
                batch = [pairs[i] for i in order[start : start + config.batch_size]]
                l_xe, l_c, l_p, total, lr = _train_step(
                    params, optimizer, dataset.train, batch, config,
                    class_tokens, unk_id, streams, steps,
                )
                steps += 1
                rows.append(
                    LogRow(
                        epoch=epoch,
                        step=steps,
                        l_xe=l_xe,
                        l_c=l_c,
                        l_p=l_p,
                        total=total,
                        lr=lr,
                        val_cider=None,
                        wall_ms=int((time.monotonic() - started) * 1000),
                    )
                )
            val_cider = split_cider(params, dataset.val, vocab, config.max_len)
            rows[-1].val_cider = val_cider
            # Every epoch, so that a run killed later still leaves its log.
            flush_log()
            log.info(
                "epoch %d: step %d, l_xe %.4f, val CIDEr %.2f", epoch, steps, l_xe, val_cider
            )
            if val_cider > best_cider:
                best_cider = val_cider
                best_params = params.copy()
                best_epoch = epoch
                epochs_without_improvement = 0
                if run_dir is not None:
                    save_checkpoint(
                        best_params,
                        run_dir / "checkpoint_best.json",
                        extra=_checkpoint_extra(config, vocab, epoch, val_cider),
                    )
            else:
                epochs_without_improvement += 1
                if epochs_without_improvement >= config.patience:
                    break
    except NumericalError:
        flush_log()
        raise
    return TrainResult(
        params=best_params,
        vocab=vocab,
        config=config,
        best_val_cider=float(best_cider),
        best_epoch=best_epoch,
        epochs_run=epoch,
        total_steps=steps,
        rows=rows,
    )


def _checkpoint_extra(config: TrainConfig, vocab: Vocabulary, epoch: int, val_cider: float) -> dict:
    return {
        "train_config": asdict(config),
        "vocab_tokens": list(vocab.tokens),
        "epoch": epoch,
        "val_cider": val_cider,
    }


def vocab_from_checkpoint_extra(extra: dict) -> Vocabulary:
    tokens = extra.get("vocab_tokens")
    if not tokens:
        raise DataValidationError("checkpoint lacks the vocabulary needed for decoding")
    tokens = tuple(str(t) for t in tokens)
    return Vocabulary(tokens=tokens, index={t: i for i, t in enumerate(tokens)})


def evaluate(
    params: ModelParams,
    examples: list[ImageExample],
    vocab: Vocabulary,
    max_len: int = 16,
) -> dict[str, float]:
    """Greedy-decode a split and emit the 100-scaled metric row."""
    if not examples:
        raise DataValidationError("cannot evaluate an empty split")
    return metric_table(decode_corpus(params, examples, vocab, max_len))


def run_experiment_matrix(
    base_config: TrainConfig,
    dataset: Dataset,
    seeds: list[int],
    out_dir: Path,
    neighbor_k: int = 3,
) -> dict:
    """Train baseline, +cluster, +perceptual and +both for every seed.

    Writes per-run directories plus combined metric and structure reports,
    and returns the combined bundle.
    """
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
            table = evaluate(result.params, dataset.test, result.vocab, config.max_len)
            report, exports = analyze(
                result.params,
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
    """Checkpoint, the vocabulary stored alongside it and its decode length."""
    params, extra = load_checkpoint(checkpoint_path)
    max_len = int(extra.get("train_config", {}).get("max_len", 16))
    return params, vocab_from_checkpoint_extra(extra), max_len
