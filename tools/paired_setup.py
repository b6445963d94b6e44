"""Time the benchmark's set-up in two source trees, in alternating pairs.

    python tools/paired_setup.py BASE CHANGE [--workload W] [--pairs 10] [--seed 1]

BASE and CHANGE are checkouts of the repository (for example a parent
commit extracted with ``git archive`` and the working tree). A probe runs
one tree's own, unchanged ``perfbench/workload.py --setup-only`` for
``--workload`` (default ``train-grounded``) at ``--seed``, which imports
that tree's ``src/groundcap``. It is timed as ``perfbench/run.py`` times
its set-up probes, for the benchmark's ``setup_s``: from the spawn of the
process to the ``ready_monotonic`` that the process reports. That span holds
the interpreter start, the imports and the writing of the workload's data
(and, for ``eval-checkpoint``, the staging of the fixture checkpoint). Each
pair runs one probe per tree; the tree that goes first alternates from pair
to pair, BASE first in the first pair.

The script prints every pair, then each tree's median and quartiles, the
median of the paired ratios CHANGE/BASE and the number of pairs in which
CHANGE was faster. It exits 1 if a probe reports ``ok: false``: a check of
its set-up failed, so the pairs did not time the same work.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _probe(tree: Path, workload: str, seed: int, work: Path) -> tuple[float, bool]:
    """Set-up seconds of one ``workload.py --setup-only`` process of ``tree``, and its ``ok``."""
    argv = [
        sys.executable, str(tree / "perfbench" / "workload.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", "0", "--workdir", str(work),
        "--setup-only",
    ]
    spawned = time.monotonic()
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"set-up in {tree} exited {proc.returncode}:\n{proc.stderr}")
    probe = json.loads((work / "setup.json").read_text())
    return probe["ready_monotonic"] - spawned, probe["ok"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", default="train-grounded", help="benchmark workload")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of probes (>= 1)")
    parser.add_argument("--seed", type=int, default=1, help="benchmark workload seed")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "workload.py").is_file():
            parser.error(f"{tree} has no perfbench/workload.py")

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workload  # this tree's, for its workload names and quantiles

    if args.workload not in workload.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workload.WORKLOADS)}")
    setup_s = {name: [] for name in trees}
    print(f"{args.workload} seed {args.seed}; set-up seconds per probe")
    with tempfile.TemporaryDirectory(prefix="paired_setup_") as tmp:
        for pair in range(args.pairs):
            order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
            for name in order:
                seconds, ok = _probe(trees[name], args.workload, args.seed, Path(tmp) / f"{name}{pair}")
                if not ok:
                    print(f"pair {pair + 1}: the {name} probe failed a set-up check")
                    return 1
                setup_s[name].append(seconds)
            print(f"pair {pair + 1} ({order[0]} first): base {setup_s['base'][-1]:.3f}, "
                  f"change {setup_s['change'][-1]:.3f}")

    for name, values in setup_s.items():
        print(f"{name}: median {statistics.median(values):.3f} s, quartiles "
              f"{workload.quantile(values, 25):.3f}-{workload.quantile(values, 75):.3f} s")
    ratios = [c / b for b, c in zip(setup_s["base"], setup_s["change"])]
    wins = sum(c < b for b, c in zip(setup_s["base"], setup_s["change"]))
    print(f"median ratio change/base {statistics.median(ratios):.4f}; "
          f"change faster in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
