"""Compare what two source trees of groundcap write, byte for byte.

    python tools/compare_trees.py BASE CHANGE [--matrix] [--work DIR]

BASE and CHANGE are checkouts of the repository (for example a parent
commit extracted with ``git archive`` and the working tree). Each tree runs
in a process of its own that imports that tree's ``src/groundcap`` and its
unchanged ``perfbench/workload.py`` (for the benchmark's data, fixture
checkpoint and training flags). Each process writes:

* under ``inputs/``, what the benchmark's own set-up (``workload.set_up``)
  writes for the ``eval-checkpoint`` workload at seeds 1-5 (its dataset
  directory and the staged fixture checkpoint) and for ``train-grounded`` at
  seed 1 (its 3 dataset directories), and the detections file below;
* ``evaluate`` and ``analyze`` of the fixture checkpoint on the test split
  of the ``eval-checkpoint`` data, and for seed 1 ``analyze --split val
  --neighbor-k 1`` on its validation split: stdout, ``--out`` and
  ``--vectors`` (the benchmark takes every seed's validation split from the
  fixture's data, so the other seeds would repeat the same run);
* ``assign-labels`` on the test split of seed 1's ``eval-checkpoint`` data,
  with a detections file made of every other box of that split and its
  label: stdout and ``--out``;
* every file and the stdout of the ``train-grounded`` runs of seed 1, one
  per dataset, and of the run on the first dataset again with every option
  in a ``--config`` file instead of flags;
* ``generate-data`` with no optional flags, with ``--geometry scrambled``,
  and with the flags of the acceptance data spec
  (``perfbench/workload.py``'s ``ACCEPTANCE_SPEC``) and the acceptance
  test's data seed: every file and stdout;
* with ``--matrix``, every file of the acceptance test's 12-run matrix
  (``tests/test_acceptance.py``'s data, config and seeds, ``neighbor_k=3``).

``convergence.csv`` is compared without its ``wall_ms`` column, the one
field that is meant to differ between runs, and stdout with the tree's
own output directory printed as ``OUT``. The script prints the SHA-256 of
every output of both trees, then the files that differ or exist on one
side only, and exits 1 if there is any. The matrix takes several minutes
per tree; the two trees run side by side.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

EVAL_SEEDS = (1, 2, 3, 4, 5)
TRAIN_SEED = 1
ACCEPTANCE_DATA_SEED = 2024  # tests/test_acceptance.py BENCH_DATA_SEED


def _run_cli(cli, argv: list[str], stdout_path: Path, root: Path) -> None:
    """Run one command and write its stdout, with ``root`` printed as OUT."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"groundcap {' '.join(argv)} exited {code}")
    stdout_path.write_text(out.getvalue().replace(str(root), "OUT"))


def _generate_flags(spec) -> list[str]:
    """The ``generate-data`` flags of a SyntheticSpec, which has no flag for
    ``caption_order_noise`` and so must keep its default."""
    if spec.caption_order_noise != type(spec)().caption_order_noise:
        raise SystemExit("generate-data cannot set caption_order_noise")
    flags = []
    for name, value in vars(spec).items():
        if name != "caption_order_noise":
            flags += ["--classes" if name == "num_classes" else "--" + name.replace("_", "-"),
                      str(value)]
    return flags


def _config_text(flags: list[str]) -> str:
    """The ``--config`` file of training flags: ``--use-cluster-loss`` becomes
    ``use_cluster_loss=true``, ``--batch-size 100`` ``batch_size=100``."""
    lines = []
    for i, flag in enumerate(flags):
        if flag.startswith("--"):
            given = i + 1 < len(flags) and not flags[i + 1].startswith("--")
            lines.append(f"{flag[2:].replace('-', '_')}={flags[i + 1] if given else 'true'}\n")
    return "".join(lines)


def _drop_wall_ms(run_root: Path) -> None:
    for path in run_root.rglob("convergence.csv"):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0][-1] != "wall_ms":
            raise SystemExit(f"{path}: the last column is {rows[0][-1]!r}, not wall_ms")
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(row[:-1] for row in rows)


def emit(root: Path, tree: Path, matrix: bool) -> None:
    """Write one tree's outputs under ``root/results`` and the data and
    checkpoints they are made from under ``root/inputs``."""
    results, inputs = root / "results", root / "inputs"
    sys.path.insert(0, str(tree / "perfbench"))
    import workload  # pins BLAS to 1 thread and imports the tree's groundcap

    from groundcap import cli, training
    from groundcap.data import generate_synthetic_dataset, load_dataset

    def set_up(name: str, seed: int, work: Path) -> dict:
        checks = workload.Checks()
        state = workload.set_up(name, seed, work, checks)
        if not checks.all_ok:
            raise SystemExit(f"set-up of {name} seed {seed} failed: {checks.results}")
        return state

    for seed in EVAL_SEEDS:
        work = inputs / f"eval_seed{seed}"
        out = results / f"eval_seed{seed}"
        out.mkdir(parents=True)
        state = set_up(workload.EVAL_WORKLOAD, seed, work)
        common = ["--checkpoint", str(state["checkpoint"]), "--data", str(state["data_dir"])]
        _run_cli(cli, ["evaluate", *common, "--split", "test", "--out", str(out / "evaluate.json")],
                 out / "evaluate.stdout", root)
        analyses = [("test", 3, "analyze")]
        if seed == EVAL_SEEDS[0]:
            analyses.append(("val", 1, "analyze_val_k1"))
        for split, k, name in analyses:
            _run_cli(cli, ["analyze", *common, "--split", split, "--neighbor-k", str(k),
                           "--out", str(out / f"{name}.json"),
                           "--vectors", str(out / f"{name}_vectors.jsonl")],
                     out / f"{name}.stdout", root)
        if seed == EVAL_SEEDS[0]:
            data_dir = state["data_dir"]
            detections = work / "detections.jsonl"
            detections.write_text("".join(
                json.dumps({"id": ex.image_id, "boxes": ex.boxes[::2].tolist(),
                            "labels": ex.labels[::2].tolist()}) + "\n"
                for ex in load_dataset(data_dir, split="test").test
            ))
            _run_cli(cli, ["assign-labels", "--targets", str(data_dir / "test.jsonl"),
                           "--detections", str(detections),
                           "--classes", str(data_dir / "classes.json"),
                           "--out", str(out / "labeled.jsonl")], out / "assign_labels.stdout", root)

    grounded = workload.TRAIN_WORKLOADS["train-grounded"]
    data_dirs = set_up("train-grounded", TRAIN_SEED, inputs / f"train_seed{TRAIN_SEED}")["data_dirs"]
    for k, data_dir in enumerate(data_dirs):
        run_dir = results / f"train_seed{TRAIN_SEED}_data{k}"
        _run_cli(cli, ["train", "--data", str(data_dir), "--out", str(run_dir),
                       *grounded["flags"], "--seed", str(TRAIN_SEED)],
                 results / f"{run_dir.name}.stdout", root)
    config = inputs / "train_grounded.cfg"
    config.write_text(_config_text([*grounded["flags"], "--seed", str(TRAIN_SEED)]))
    run_dir = results / f"train_seed{TRAIN_SEED}_data0_config"
    _run_cli(cli, ["train", "--data", str(data_dirs[0]), "--out", str(run_dir),
                   "--config", str(config)], results / f"{run_dir.name}.stdout", root)

    for name, flags in (
        ("generate_default", []),
        ("generate_scrambled", ["--geometry", "scrambled"]),
        ("generate_acceptance", [*_generate_flags(workload.ACCEPTANCE_SPEC),
                                 "--seed", str(ACCEPTANCE_DATA_SEED)]),
    ):
        _run_cli(cli, ["generate-data", "--out", str(results / name), *flags],
                 results / f"{name}.stdout", root)

    if matrix:
        sys.path.insert(0, str(tree / "tests"))
        import test_acceptance as acceptance

        dataset = generate_synthetic_dataset(acceptance.BENCH_SPEC, seed=acceptance.BENCH_DATA_SEED)
        training.run_experiment_matrix(
            acceptance.BENCH_CONFIG, dataset, acceptance.BENCH_TRAIN_SEEDS,
            results / "matrix", neighbor_k=3,
        )
    _drop_wall_ms(results)


def digests(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def compare(base: Path, change: Path, work: Path, matrix: bool) -> int:
    procs = []
    for side, tree in (("base", base), ("change", change)):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--emit", str(tree.resolve()),
               str(work / side)]
        if matrix:
            cmd.append("--matrix")
        procs.append(subprocess.Popen(cmd))
    if any(proc.wait() != 0 for proc in procs):
        print("a tree failed to write its outputs", file=sys.stderr)
        return 2
    left = digests(work / "base")
    right = digests(work / "change")
    differ = []
    for name in sorted(left.keys() | right.keys()):
        a, b = left.get(name, "-"), right.get(name, "-")
        print(f"{a[:16]}  {b[:16]}  {'same   ' if a == b else 'DIFFERS'}  {name}")
        if a != b:
            differ.append(name)
    print(f"{len(left.keys() | right.keys())} files, {len(differ)} differ")
    for name in differ:
        print(f"differs: {name}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--matrix", action="store_true", help="also run the 12-run matrix")
    parser.add_argument("--work", type=Path, help="keep every output here (default: a "
                                                  "temporary directory, removed afterwards)")
    parser.add_argument("--emit", nargs=2, type=Path, metavar=("TREE", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        tree, out = args.emit
        emit(out, tree, args.matrix)
        return 0
    if args.base is None or args.change is None:
        parser.error("BASE and CHANGE are required")
    if args.work is not None:
        args.work.mkdir(parents=True, exist_ok=False)
        return compare(args.base, args.change, args.work, args.matrix)
    work = Path(tempfile.mkdtemp(prefix="compare_trees_"))
    try:
        return compare(args.base, args.change, work, args.matrix)
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    sys.exit(main())
