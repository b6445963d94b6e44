"""Command-line interface.

Subcommands: generate-data, assign-labels, train, evaluate, analyze,
matrix. Training-related flags mirror TrainConfig fields; ``--config``
reads a flat key=value file whose entries are overridden by explicit
flags. Every run writes its config snapshot, logs and checkpoints into
the run directory.

Exit codes: 0 success, 2 configuration error, 3 data validation error,
4 numerical failure (a NaN loss aborts training; the last good checkpoint
stays on disk).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .analysis import analyze, split_cider, write_vector_export
from .data import (
    SyntheticSpec,
    generate_synthetic_dataset,
    load_class_table,
    load_dataset,
    save_dataset,
    write_atomic,
)
from .errors import ConfigError, DataValidationError, GroundcapError, NumericalError
from .labeling import label_dataset_file
from .training import (
    TrainConfig,
    evaluate,
    load_for_inference,
    run_experiment_matrix,
    train,
)

log = logging.getLogger(__name__)

_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in _BOOL_TRUE:
        return True
    if v in _BOOL_FALSE:
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


def read_config_file(path: Path) -> dict[str, str]:
    """Flat key=value lines; blank lines and #-comments are ignored."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def build_train_config(args: argparse.Namespace) -> TrainConfig:
    """Defaults < config file < explicit command-line flags."""
    config = TrainConfig()
    if args.config is not None:
        file_values = read_config_file(args.config)
        fields = {f.name: f for f in dataclasses.fields(TrainConfig)}
        updates = {}
        for key, raw in file_values.items():
            if key not in fields:
                raise ConfigError(f"unknown config key {key!r}")
            ftype = fields[key].type
            try:
                if ftype == "bool":
                    updates[key] = _parse_bool(raw)
                elif ftype == "int":
                    updates[key] = int(raw)
                elif ftype == "float":
                    updates[key] = float(raw)
                elif ftype == "int | None":
                    updates[key] = None if raw.lower() == "none" else int(raw)
                else:
                    updates[key] = raw
            except ValueError as err:
                raise ConfigError(f"config key {key}: {err}") from err
        config = dataclasses.replace(config, **updates)
    flag_overrides = {
        name: getattr(args, name)
        for name in (f.name for f in dataclasses.fields(TrainConfig))
        if getattr(args, name, None) is not None
    }
    return dataclasses.replace(config, **flag_overrides)


def _add_train_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="flat key=value config file")
    grp = parser.add_argument_group("training configuration")
    grp.add_argument("--hidden-size", dest="hidden_size", type=int)
    grp.add_argument("--att-size", dest="att_size", type=int)
    grp.add_argument("--min-count", dest="min_count", type=int)
    grp.add_argument("--max-len", dest="max_len", type=int)
    grp.add_argument("--batch-size", dest="batch_size", type=int)
    grp.add_argument("--learning-rate", dest="learning_rate", type=float)
    grp.add_argument("--lr-decay", dest="lr_decay", type=float)
    grp.add_argument("--lr-decay-every", dest="lr_decay_every", type=int)
    grp.add_argument("--grad-clip-norm", dest="grad_clip_norm", type=float)
    grp.add_argument("--dropout", dest="dropout", type=float)
    grp.add_argument("--patience", dest="patience", type=int)
    grp.add_argument("--max-epochs", dest="max_epochs", type=int)
    grp.add_argument(
        "--use-cluster-loss", dest="use_cluster_loss", action="store_const", const=True
    )
    grp.add_argument(
        "--use-perceptual-loss", dest="use_perceptual_loss", action="store_const", const=True
    )
    grp.add_argument("--margin", dest="margin", type=float)
    grp.add_argument("--cluster-weight", dest="cluster_weight", type=float)
    grp.add_argument("--perceptual-weight", dest="perceptual_weight", type=float)
    grp.add_argument("--sample-size", dest="sample_size", type=int)
    grp.add_argument(
        "--freeze-embeddings-for-grounding",
        dest="freeze_embeddings_for_grounding",
        action="store_const",
        const=True,
    )
    grp.add_argument("--seed", dest="seed", type=int)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groundcap",
        description="Grounded image captioning: training, evaluation and analysis.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="write a synthetic dataset directory")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--images", type=int, default=500)
    p.add_argument("--spread", type=float, default=0.3)
    p.add_argument("--objects-min", type=int, default=2)
    p.add_argument("--objects-max", type=int, default=6)
    p.add_argument("--feature-size", type=int, default=32)
    p.add_argument("--geometry", choices=("matched", "scrambled"), default="matched")
    p.add_argument("--captions-per-image", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("assign-labels", help="fill labels via IoU against detections")
    p.add_argument("--targets", type=Path, required=True, help="JSONL feature records")
    p.add_argument("--detections", type=Path, required=True, help="JSONL detection records")
    p.add_argument("--classes", type=Path, required=True, help="class table JSON")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("train", help="train one model")
    p.add_argument("--data", type=Path, required=True, help="dataset directory")
    p.add_argument("--out", type=Path, required=True, help="run directory")
    _add_train_config_flags(p)

    p = sub.add_parser("evaluate", help="score a checkpoint on a split")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--out", type=Path, help="write the metric row JSON here")

    p = sub.add_parser("analyze", help="structure analysis of a checkpoint")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--neighbor-k", type=int, default=3)
    p.add_argument("--out", type=Path, help="write the report JSON here")
    p.add_argument("--vectors", type=Path, help="write raw vectors JSONL here")

    p = sub.add_parser("matrix", help="train baseline and grounded variants")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    p.add_argument("--neighbor-k", type=int, default=3)
    _add_train_config_flags(p)

    return parser


def _cmd_generate_data(args) -> int:
    spec = SyntheticSpec(
        num_classes=args.classes,
        spread=args.spread,
        images=args.images,
        objects_min=args.objects_min,
        objects_max=args.objects_max,
        feature_size=args.feature_size,
        geometry=args.geometry,
        captions_per_image=args.captions_per_image,
    )
    dataset = generate_synthetic_dataset(spec, seed=args.seed)
    save_dataset(dataset, args.out)
    print(
        f"wrote {len(dataset.train)}/{len(dataset.val)}/{len(dataset.test)} "
        f"train/val/test images to {args.out}"
    )
    return 0


def _cmd_assign_labels(args) -> int:
    table = load_class_table(args.classes)
    count = label_dataset_file(args.targets, args.detections, args.out, table.unk_id)
    print(f"labeled {count} images -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = build_train_config(args)
    dataset = load_dataset(args.data)
    result = train(config, dataset, run_dir=args.out)
    print(
        f"finished after {result.epochs_run} epochs / {result.total_steps} steps; "
        f"best val CIDEr {result.best_val_cider:.2f} (epoch {result.best_epoch})"
    )
    print(f"checkpoint: {args.out / 'checkpoint_best.json'}")
    return 0


def _load_checkpoint_and_data(args):
    """Checkpoint (parameters, vocabulary, decode length) and the dataset."""
    params, vocab, max_len = load_for_inference(args.checkpoint)
    return params, vocab, max_len, load_dataset(args.data)


def _cmd_evaluate(args) -> int:
    params, vocab, max_len, dataset = _load_checkpoint_and_data(args)
    table = evaluate(params, dataset.splits[args.split], vocab, max_len)
    text = json.dumps(table, sort_keys=True, indent=2)
    if args.out:
        write_atomic(args.out, text + "\n")
    print(text)
    return 0


def _cmd_analyze(args) -> int:
    params, vocab, max_len, dataset = _load_checkpoint_and_data(args)
    examples = dataset.splits[args.split]
    report, exports = analyze(
        params,
        examples,
        dataset.class_table,
        vocab,
        cider=split_cider(params, examples, vocab, max_len),
        neighbor_k=args.neighbor_k,
    )
    if args.out:
        write_atomic(args.out, report.to_json() + "\n")
    if args.vectors:
        write_vector_export(exports, args.vectors)
    print(report.to_json())
    return 0


def _cmd_matrix(args) -> int:
    config = build_train_config(args)
    dataset = load_dataset(args.data)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as err:
        raise ConfigError(f"bad --seeds value {args.seeds!r}: {err}") from err
    if not seeds:
        raise ConfigError("--seeds must name at least one seed")
    bundle = run_experiment_matrix(
        config, dataset, seeds=seeds, out_dir=args.out, neighbor_k=args.neighbor_k
    )
    print(f"wrote {len(bundle['runs'])} runs to {args.out}")
    return 0


_COMMANDS = {
    "generate-data": _cmd_generate_data,
    "assign-labels": _cmd_assign_labels,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "analyze": _cmd_analyze,
    "matrix": _cmd_matrix,
}


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except DataValidationError as err:
        print(f"data validation error: {err}", file=sys.stderr)
        return 3
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4
    except GroundcapError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
