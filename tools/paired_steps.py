"""Time the training steps of two source trees in alternating pairs.

    python tools/paired_steps.py BASE CHANGE [--pairs 10] [--seed 1]

BASE and CHANGE are checkouts of the repository (for example a parent
commit extracted with ``git archive`` and the working tree). The script
generates the first dataset of the benchmark's ``train-grounded`` workload
at ``--seed`` once, with this tree's ``perfbench/workload.py`` (which also
pins BLAS to 1 thread, for the subprocesses too). Each pair then runs one
``groundcap train`` subprocess per tree, with the workload's training flags
and ``--seed``, importing that tree's ``src/groundcap``; the tree that goes
first alternates from pair to pair, BASE first in the first pair.

A call's time is its mean step time, read from its ``convergence.csv`` as
the benchmark reads ``latency_ms``: the ``wall_ms`` difference of
consecutive rows of one epoch. The script prints every pair, then each
tree's median and quartiles, the median of the paired ratios CHANGE/BASE
and the number of pairs in which CHANGE was faster. It exits 1 if the two
trees' logs differ apart from ``wall_ms``, because then the pairs did not
time the same work.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD = "train-grounded"


def _train(tree: Path, data: Path, out: Path, flags: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-m", "groundcap.cli", "train", "--data", str(data), "--out", str(out)]
    proc = subprocess.run(argv + flags, env=env, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"train in {tree} exited {proc.returncode}:\n{proc.stderr}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10, help="pairs of train calls (>= 1)")
    parser.add_argument("--seed", type=int, default=1, help="benchmark workload seed")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "groundcap").is_dir():
            parser.error(f"{tree} has no src/groundcap")

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workload  # pins BLAS to 1 thread and imports this tree's groundcap

    from groundcap.data import generate_synthetic_dataset, save_dataset

    flags = workload.TRAIN_WORKLOADS[WORKLOAD]["flags"] + ["--seed", str(args.seed)]
    spec = workload.TRAIN_WORKLOADS[WORKLOAD]["spec"]
    step_ms = {name: [] for name in trees}
    with tempfile.TemporaryDirectory(prefix="paired_steps_") as tmp:
        work = Path(tmp)
        data = work / "data"
        dataset = generate_synthetic_dataset(spec, seed=workload.TRAIN_DATASETS * args.seed)
        save_dataset(dataset, data)
        print(f"{WORKLOAD} seed {args.seed}, first dataset, BLAS threads "
              f"{os.environ['OPENBLAS_NUM_THREADS']}; mean step ms per call")
        for pair in range(args.pairs):
            order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
            logs = {}
            for name in order:
                out = work / f"{name}{pair}"
                _train(trees[name], data, out, flags)
                rows = workload.read_convergence(out / "convergence.csv")
                logs[name] = workload.without_wall_ms(rows)
                step_ms[name].append(statistics.fmean(workload.step_latencies_ms(rows)))
            if logs["base"] != logs["change"]:
                print(f"pair {pair + 1}: the trees' convergence logs differ apart from wall_ms")
                return 1
            print(f"pair {pair + 1} ({order[0]} first): base {step_ms['base'][-1]:.2f}, "
                  f"change {step_ms['change'][-1]:.2f}")

    for name, values in step_ms.items():
        print(f"{name}: median {statistics.median(values):.2f} ms, quartiles "
              f"{workload.quantile(values, 25):.2f}-{workload.quantile(values, 75):.2f} ms")
    ratios = [c / b for b, c in zip(step_ms["base"], step_ms["change"])]
    wins = sum(c < b for b, c in zip(step_ms["base"], step_ms["change"]))
    print(f"median ratio change/base {statistics.median(ratios):.4f}; "
          f"change faster in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
