"""Command-line interface.

Subcommands: generate-data, assign-labels, train, evaluate, analyze,
matrix. Every TrainConfig field is a ``train``/``matrix`` flag
(``--hidden-size``) and a key of the flat key=value ``--config`` file
(``hidden_size``); explicit flags override the file. ``generate-data``
takes its defaults from SyntheticSpec. Every run writes its config
snapshot, logs and checkpoints into the run directory.

Exit codes: 0 success, 2 configuration error (an output path that cannot
be written is one, named before anything is read, decoded or trained), 3
data validation error, 4 numerical failure (a NaN loss aborts training;
the last good checkpoint stays on disk).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .analysis import (
    DEFAULT_NEIGHBOR_K,
    analyze,
    check_neighbor_k_option,
    split_cider,
    write_vector_export,
)
from .data import (
    GEOMETRIES,
    SPLITS,
    SyntheticSpec,
    generate_synthetic_dataset,
    load_class_table,
    load_dataset,
    save_dataset,
    write_atomic,
)
from .errors import ConfigError, DataValidationError, GroundcapError, NumericalError
from .labeling import label_dataset_file
from .training import TrainConfig, evaluate, load_for_inference, run_experiment_matrix, train

_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in _BOOL_TRUE:
        return True
    if v in _BOOL_FALSE:
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


def int_or_none(value: str) -> int | None:
    return None if value.strip().lower() == "none" else int(value)


# TrainConfig field annotation -> parser of a flag or config value
_PARSERS = {"bool": _parse_bool, "int": int, "float": float, "int | None": int_or_none}


def read_config_file(path: Path) -> dict[str, str]:
    """Flat key=value lines, each key once; blank lines and #-comments are ignored."""
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
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ConfigError(f"{path}:{lineno}: key {key!r} appears more than once")
        values[key] = value
    return values


def _given(args: argparse.Namespace, cls) -> dict:
    """The fields of dataclass ``cls`` set by a flag (a flag not given is absent)."""
    names = (f.name for f in dataclasses.fields(cls))
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def build_train_config(args: argparse.Namespace) -> TrainConfig:
    """Defaults < config file < explicit command-line flags."""
    types = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    values = {}
    if args.config is not None:
        for key, raw in read_config_file(args.config).items():
            if key not in types:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                values[key] = _PARSERS[types[key]](raw)
            except ValueError as err:
                raise ConfigError(f"config key {key}: {err}") from err
    return TrainConfig(**{**values, **_given(args, TrainConfig)})


def _add_train_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per TrainConfig field: ``--hidden-size`` sets ``hidden_size``."""
    parser.add_argument("--config", type=Path, help="flat key=value config file")
    grp = parser.add_argument_group("training configuration")
    for f in dataclasses.fields(TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            grp.add_argument(flag, action="store_const", const=True, default=argparse.SUPPRESS)
        else:
            grp.add_argument(flag, type=_PARSERS[f.type], default=argparse.SUPPRESS)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groundcap",
        description="Grounded image captioning: training, evaluation and analysis.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="write a synthetic dataset directory",
                       argument_default=argparse.SUPPRESS)  # SyntheticSpec holds the defaults
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--classes", dest="num_classes", type=int)
    p.add_argument("--images", type=int)
    p.add_argument("--spread", type=float)
    p.add_argument("--objects-min", type=int)
    p.add_argument("--objects-max", type=int)
    p.add_argument("--feature-size", type=int)
    p.add_argument("--geometry", choices=GEOMETRIES)
    p.add_argument("--captions-per-image", type=int)
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
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--out", type=Path, help="write the metric row JSON here")

    p = sub.add_parser("analyze", help="structure analysis of a checkpoint")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--neighbor-k", type=int, default=DEFAULT_NEIGHBOR_K)
    p.add_argument("--out", type=Path, help="write the report JSON here")
    p.add_argument("--vectors", type=Path, help="write raw vectors JSONL here")

    p = sub.add_parser("matrix", help="train baseline and grounded variants")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    p.add_argument("--neighbor-k", type=int, default=DEFAULT_NEIGHBOR_K)
    _add_train_config_flags(p)

    return parser


def _check_out_dir(path: Path) -> None:
    """A directory output: ``path``, or its nearest existing ancestor, must
    be a directory."""
    for parent in (path, *path.parents):
        if parent.exists():
            if not parent.is_dir():
                raise ConfigError(f"cannot write into {path}: {parent} is not a directory")
            return


def _check_out_file(path: Path | None) -> None:
    """A file output: its directory must exist, and it must not be one."""
    if path is None:
        return
    if not path.parent.is_dir():
        raise ConfigError(f"cannot write {path}: {path.parent} is not a directory")
    if path.is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")


def _cmd_generate_data(args) -> int:
    _check_out_dir(args.out)
    spec = SyntheticSpec(**_given(args, SyntheticSpec))
    dataset = generate_synthetic_dataset(spec, seed=args.seed)
    save_dataset(dataset, args.out)
    print(
        f"wrote {len(dataset.train)}/{len(dataset.val)}/{len(dataset.test)} "
        f"train/val/test images to {args.out}"
    )
    return 0


def _cmd_assign_labels(args) -> int:
    _check_out_file(args.out)
    table = load_class_table(args.classes)
    count = label_dataset_file(args.targets, args.detections, args.out, table)
    print(f"labeled {count} images -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    _check_out_dir(args.out)
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
    """Checkpoint (parameters, vocabulary, decode length) and the dataset with
    only ``args.split`` read in full (see ``load_dataset``), of the
    checkpoint's feature width."""
    params, vocab, max_len = load_for_inference(args.checkpoint)
    dataset = load_dataset(args.data, split=args.split)
    widths = {ex.features.shape[1] for ex in dataset.splits[args.split]}
    if widths - {params.config.feature_size}:
        raise DataValidationError(
            f"{args.data}: features of width {widths.pop()}, "
            f"the checkpoint expects {params.config.feature_size}"
        )
    return params, vocab, max_len, dataset


def _cmd_evaluate(args) -> int:
    _check_out_file(args.out)
    params, vocab, max_len, dataset = _load_checkpoint_and_data(args)
    table = evaluate(params, dataset.splits[args.split], vocab, max_len)
    text = json.dumps(table, sort_keys=True, indent=2)
    if args.out:
        write_atomic(args.out, text + "\n")
    print(text)
    return 0


def _cmd_analyze(args) -> int:
    _check_out_file(args.out)
    _check_out_file(args.vectors)
    params, vocab, max_len, dataset = _load_checkpoint_and_data(args)
    examples = dataset.splits[args.split]
    check_neighbor_k_option(args.neighbor_k, examples, dataset.class_table.unk_id)
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
    _check_out_dir(args.out)
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
