"""Measure the memory one training step of ``train-grounded`` allocates.

    python tools/step_memory.py [--hidden-size 64] [--steps 10] [--seed 1]

The script trains on the first dataset of the benchmark's ``train-grounded``
workload at ``--seed``, with that workload's training flags
(``perfbench/workload.py``, which also pins BLAS to 1 thread) and
``--hidden-size`` in place of its hidden size, under ``tracemalloc``. For
each of ``--steps`` calls of ``training._train_step`` it takes the step's
transient peak: the most memory the step's allocations held at once, less
what was traced when the step began. It prints

* the largest and the median transient peak over those steps;
* the process's maxrss from ``getrusage``, which includes tracemalloc's own
  bookkeeping;
* the 15 source lines that held the most memory, relative to the step's
  start, at the highest point of one more step. That step is sampled at
  every Python and C function call and return, so a temporary that lives
  only inside one expression can be missed; the script prints the sampled
  height next to the step's exact peak.

Every number is in MB (10^6 bytes), except maxrss, which is in MiB as
the benchmark's ``peak_rss_mb`` is.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOP_LINES = 15
MB = 1e6


class _Done(Exception):
    """Ends the training run once every step has been measured."""


def _train_config(workload, cli, hidden_size: int, seed: int):
    """The workload's training flags, read as ``groundcap train`` reads them;
    ``--data`` and ``--out`` are required but not used."""
    flags = workload.TRAIN_WORKLOADS["train-grounded"]["flags"]
    args = cli.make_parser().parse_args(
        ["train", "--data", "-", "--out", "-", *flags,
         "--hidden-size", str(hidden_size), "--seed", str(seed)]
    )
    return cli.build_train_config(args)


def _sampled_step(step, state, batch):
    """Run one step under a profile hook; the snapshot at its highest
    sampled point, the step's start snapshot and both heights in bytes."""
    start = tracemalloc.take_snapshot()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    high = [base, start]

    def sample(frame, event, arg):
        current = tracemalloc.get_traced_memory()[0]
        if current > high[0]:
            high[0] = current
            high[1] = tracemalloc.take_snapshot()

    sys.setprofile(sample)
    try:
        step(state, batch)
    finally:
        sys.setprofile(None)
    peak = tracemalloc.get_traced_memory()[1] - base
    return high[1], start, high[0] - base, peak


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hidden-size", type=int, default=64)
    parser.add_argument("--steps", type=int, default=10, help="steps to measure (>= 1)")
    parser.add_argument("--seed", type=int, default=1, help="benchmark workload seed")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be >= 1")

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workload  # pins BLAS to 1 thread and imports this tree's groundcap

    from groundcap import cli, training
    from groundcap.data import generate_synthetic_dataset

    config = _train_config(workload, cli, args.hidden_size, args.seed)
    spec = workload.TRAIN_WORKLOADS["train-grounded"]["spec"]
    dataset = generate_synthetic_dataset(spec, seed=workload.TRAIN_DATASETS * args.seed)

    step = training._train_step
    peaks: list[int] = []
    sampled = None

    def measured(state, batch):
        nonlocal sampled
        if len(peaks) == args.steps:
            sampled = _sampled_step(step, state, batch)
            raise _Done
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step(state, batch)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)

    tracemalloc.start()
    training._train_step = measured
    try:
        training.train(config, dataset)
    except _Done:
        pass
    finally:
        training._train_step = step
    if sampled is None:
        raise SystemExit(f"training ended after {len(peaks)} steps, before {args.steps} + 1")
    high, start, height, peak = sampled
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracemalloc.stop()

    print(f"hidden size {args.hidden_size}, {args.steps} steps of seed {args.seed}'s first "
          f"train-grounded dataset, BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}")
    print(f"transient peak per step: max {max(peaks) / MB:.1f} MB, "
          f"median {statistics.median(peaks) / MB:.1f} MB")
    print(f"maxrss: {maxrss:.1f} MiB")
    print(f"top {TOP_LINES} lines at the highest sampled point of step {args.steps + 1} "
          f"({height / MB:.1f} MB of its {peak / MB:.1f} MB peak):")
    ignore = [tracemalloc.Filter(False, tracemalloc.__file__), tracemalloc.Filter(False, __file__)]
    diffs = high.filter_traces(ignore).compare_to(start.filter_traces(ignore), "lineno")
    for stat in diffs[:TOP_LINES]:
        frame = stat.traceback[0]
        path = Path(frame.filename).resolve()
        # this tree's files relative to its root, a package's from its package directory
        if path.is_relative_to(ROOT):
            where = path.relative_to(ROOT)
        else:
            where = str(path).rpartition("site-packages/")[2]
        print(f"  {stat.size_diff / MB:8.2f} MB  {stat.count_diff:+6d} blocks  {where}:{frame.lineno}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
