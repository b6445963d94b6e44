#!/usr/bin/env python3
"""groundcap benchmark: one workload per call, metrics as one JSON line.

    python3 perfbench/run.py --workload train-grounded --seed 1 --seconds 50 --trace 0

Workloads: ``train-grounded`` and ``eval-checkpoint`` (see
perfbench/README.md for their configs and why each was chosen). The workload
runs in its own process (``workload.py``), a closed loop with one caller
that drives ``groundcap.cli.main`` for ``--seconds``. With ``--trace 0`` the
result holds the end-to-end metrics; ``--trace 1`` runs traced and untraced
iterations alternately and reports the per-layer metrics, plus the tracing
overhead.

Set-up (interpreter start, imports, BLAS pinning, writing the data and staging
the checkpoint) is timed in ``SETUP_PROBES`` extra processes that stop before
the first timed call, and in the measured process itself; ``setup_s`` is the
median.

Every metric is printed with its unit and sample count, followed by the
environment and the input fingerprints. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 when
every correctness check passed, 1 when one failed (the result line is still
printed) and 2 when the workload could not run (no result line).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-grounded", "eval-checkpoint")
SETUP_PROBES = 4
# Every call must end within 180 s; leave room for reporting.
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    """The workload could not be run; no result is printed."""


def spawn(args: argparse.Namespace, workdir: Path, deadline: float, setup_only: bool) -> tuple[dict, float]:
    """Run workload.py to completion; return its JSON output and spawn time."""
    cmd = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("no time left before the deadline")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired as err:  # run() has killed and reaped it
        raise BenchmarkError(f"workload process timed out after {timeout:.0f} s") from err
    if proc.returncode != 0:
        raise BenchmarkError(f"workload process exited {proc.returncode}")
    out = workdir / ("setup.json" if setup_only else "result.json")
    if not out.is_file():
        raise BenchmarkError(f"workload process wrote no {out.name}")
    return json.loads(out.read_text()), spawned


def run(args: argparse.Namespace) -> dict:
    if not (ROOT / "src" / "groundcap" / "__init__.py").is_file():
        raise BenchmarkError(f"no groundcap sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_samples = []
    setup_ok = True
    if not args.trace:
        for k in range(SETUP_PROBES):
            probe_dir = work / f"probe{k}"
            probe, spawned = spawn(args, probe_dir, deadline, setup_only=True)
            setup_samples.append(probe["ready_monotonic"] - spawned)
            setup_ok = setup_ok and probe["ok"]
            shutil.rmtree(probe_dir)

    main_dir = work / "main"
    result, spawned = spawn(args, main_dir, deadline, setup_only=False)
    # Keep the trace and the report; drop the generated data and checkpoints.
    if (main_dir / "trace.jsonl").is_file():
        (main_dir / "trace.jsonl").rename(work / "trace.jsonl")
    shutil.rmtree(main_dir)
    if not args.trace:
        setup_samples.append(result["ready_monotonic"] - spawned)
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setup_samples),
            "unit": "s",
            "samples": len(setup_samples),
        }
        result["setup_samples_s"] = setup_samples
        result["checks"]["setup_probes_ok"] = {
            "ok": setup_ok,
            "failures": [] if setup_ok else ["a set-up process failed a check"],
        }
        result["correct"] = result["correct"] and setup_ok
    (work / "report.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args)
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2

    metrics = result["metrics"]
    width = max((len(name) for name in metrics), default=0)
    for name, m in sorted(metrics.items()):
        print(f"{name:<{width}}  {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
    for name, check in sorted(result["checks"].items()):
        if not check["ok"]:
            print(f"FAILED check {name}: {'; '.join(check['failures'])}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print("inputs " + json.dumps(result["fingerprints"], sort_keys=True))
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps(line, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
