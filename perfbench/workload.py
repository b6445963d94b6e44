"""One benchmark workload in one process: set up, run the closed loop, check.

``run.py`` starts this script; it is not meant to be run by hand. The script
drives groundcap only through ``groundcap.cli.main(argv)``, in-process, with
one caller that issues its next CLI call when the previous one returned.
With ``--setup-only`` it stops at the moment the first timed call would
start, which is how ``run.py`` times set-up several times per run.

The result (metrics with their sample counts, correctness checks, input
fingerprints and the environment) goes to ``<workdir>/result.json``.
"""

import os

# Pin BLAS before numpy is imported: 2 threads were slower and noisier than
# 1 on the 2-vCPU reference machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import groundcap  # noqa: E402

if not Path(groundcap.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"groundcap was imported from {groundcap.__file__}, not from {SRC}")

from groundcap import cli, kernels  # noqa: E402
from groundcap.data import (  # noqa: E402
    Dataset,
    SyntheticSpec,
    generate_synthetic_dataset,
    save_dataset,
)
from groundcap.training import load_for_inference  # noqa: E402

from tracing import SPAN_NAMES, Tracer  # noqa: E402

FIXTURE_DIR = HERE / "fixture"
FIXTURE = json.loads((FIXTURE_DIR / "fixture.json").read_text())

# The acceptance-matrix data spec (tests/test_acceptance.py BENCH_SPEC).
ACCEPTANCE_SPEC = SyntheticSpec(
    num_classes=10,
    spread=0.1,
    images=500,
    feature_size=32,
    objects_min=2,
    objects_max=4,
    captions_per_image=3,
)
TRAIN_FLAGS = ["--hidden-size", "64", "--batch-size", "100", "--min-count", "1"]

TRAIN_WORKLOADS = {
    "train-grounded": {
        "spec": replace(ACCEPTANCE_SPEC, num_classes=20, objects_max=10),
        "flags": TRAIN_FLAGS
        + [
            "--max-epochs", "4", "--patience", "4", "--sample-size", "2000",
            "--use-cluster-loss", "--use-perceptual-loss",
        ],
    },
}
# A train run cycles over this many datasets, all made from the workload seed,
# so that one seed's data (object counts, caption lengths) weighs less in its
# timings. Odd, so that a traced run traces every dataset.
TRAIN_DATASETS = 3
EVAL_WORKLOAD = "eval-checkpoint"
EVAL_TEST_IMAGES = 500
# Held-out images generated after the fixture's own 500, from the fixture's
# data seed (so they share its class geometry); the workload seed picks the
# test split among them.
EVAL_POOL_IMAGES = 2000
WORKLOADS = (*TRAIN_WORKLOADS, EVAL_WORKLOAD)

MIN_ITERATIONS = 2
# Spans whose inclusive time is reported next to their self time.
INCLUSIVE = (
    "model.batch_forward",
    "model.greedy_decode",
    "autodiff.backward",
    "training.val_decode",
    "metrics.metric_table",
    "analysis.analyze",
)
CSV_LOSS_COLUMNS = ("l_xe", "l_c", "l_p", "total")


class Checks:
    """Named pass/fail correctness checks with a detail for each failure."""

    def __init__(self):
        self.results: dict[str, dict] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        entry = self.results.setdefault(name, {"ok": True, "failures": []})
        if not ok:
            entry["ok"] = False
            if len(entry["failures"]) < 5:
                entry["failures"].append(detail)

    @property
    def all_ok(self) -> bool:
        return all(entry["ok"] for entry in self.results.values())


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_dir(path: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(path.iterdir()):
        digest.update(file.name.encode() + b"\0")
        digest.update(file.read_bytes())
    return digest.hexdigest()


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = Path("/proc/self/status")
    threads = None
    if status.is_file():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "process_threads": threads,
        "use_numba": bool(kernels.USE_NUMBA),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def stage_fixture(work: Path, class_table, checks: Checks) -> Path:
    """Decompress the committed checkpoint and verify that it loads."""
    path = work / "checkpoint.json"
    with gzip.open(FIXTURE_DIR / FIXTURE["checkpoint_file"], "rb") as src:
        path.write_bytes(src.read())
    digest = sha256_file(path)
    checks.check(
        "fixture_checkpoint_sha256",
        digest == FIXTURE["checkpoint_sha256"],
        f"{digest} != {FIXTURE['checkpoint_sha256']}",
    )
    params, vocab, _ = load_for_inference(path)  # raises if it does not validate
    class_table.label_token_ids(vocab)  # raises if a class word is out of vocabulary
    checks.check(
        "fixture_checkpoint_feature_size",
        params.config.feature_size == ACCEPTANCE_SPEC.feature_size,
        f"feature size {params.config.feature_size} != {ACCEPTANCE_SPEC.feature_size}",
    )
    return path


def eval_dataset(seed: int) -> Dataset:
    """The fixture's train/val images plus a seed-chosen held-out test split."""
    spec = replace(ACCEPTANCE_SPEC, images=ACCEPTANCE_SPEC.images + EVAL_POOL_IMAGES)
    full = generate_synthetic_dataset(spec, seed=FIXTURE["data_seed"])
    images = full.train + full.val + full.test
    n_train = int(ACCEPTANCE_SPEC.images * 0.8)
    n_val = int(ACCEPTANCE_SPEC.images * 0.1)
    pool = images[ACCEPTANCE_SPEC.images :]
    chosen = np.sort(np.random.default_rng(seed).choice(len(pool), EVAL_TEST_IMAGES, replace=False))
    return Dataset(
        train=images[:n_train],
        val=images[n_train : n_train + n_val],
        test=[pool[i] for i in chosen],
        class_table=full.class_table,
    )


def set_up(workload: str, seed: int, work: Path, checks: Checks) -> dict:
    state = {}
    if workload == EVAL_WORKLOAD:
        data_dir = state["data_dir"] = work / "data"
        dataset = eval_dataset(seed)
        save_dataset(dataset, data_dir)
        state["checkpoint"] = stage_fixture(work, dataset.class_table, checks)
        state["fingerprints"] = {
            "data_sha256": sha256_dir(data_dir),
            "checkpoint_sha256": sha256_file(state["checkpoint"]),
        }
        state["test_images"] = len(dataset.test)
    else:
        state["data_dirs"] = []
        state["captions_per_epoch"] = []
        for k in range(TRAIN_DATASETS):
            data_dir = work / f"data{k}"
            dataset = generate_synthetic_dataset(TRAIN_WORKLOADS[workload]["spec"], seed=TRAIN_DATASETS * seed + k)
            save_dataset(dataset, data_dir)
            state["data_dirs"].append(data_dir)
            state["captions_per_epoch"].append(sum(len(ex.captions) for ex in dataset.train))
        state["fingerprints"] = {f"data{k}_sha256": sha256_dir(d) for k, d in enumerate(state["data_dirs"])}
    return state


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def cli_call(argv: list[str], tracer: Tracer | None) -> tuple[int, float, str]:
    """One CLI call as a user would make it: exit code, wall seconds, stdout."""
    gc.collect()  # each call starts from a settled heap, as in a fresh process
    out = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span("cli." + argv[0]):
                    code = cli.main(argv)
    except SystemExit as err:
        code = err.code if isinstance(err.code, int) else 1
    except Exception:  # a crash counts as a failed call; the loop goes on
        traceback.print_exc()
        code = -1
    return code, time.perf_counter() - started, out.getvalue()


def read_convergence(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def step_latencies_ms(rows: list[dict]) -> list[float]:
    """Per-step wall time from consecutive rows of one epoch.

    The first row of an epoch follows the previous epoch's validation pass
    (or the start of training), so it has no in-epoch predecessor.
    """
    out = []
    for prev, row in zip(rows, rows[1:]):
        if row["epoch"] == prev["epoch"]:
            out.append(float(row["wall_ms"]) - float(prev["wall_ms"]))
    return out


def check_train_rows(rows: list[dict], checks: Checks) -> None:
    for row in rows:
        for col in CSV_LOSS_COLUMNS:
            checks.check("losses_finite", math.isfinite(float(row[col])), f"step {row['step']} {col}={row[col]}")
        checks.check("learning_rate_positive", float(row["lr"]) > 0, f"step {row['step']} lr={row['lr']}")
        if row["val_cider"]:
            cider = float(row["val_cider"])
            checks.check("val_cider_in_range", 0.0 <= cider <= 1000.0, f"step {row['step']} val_cider={cider}")
    grounded = any(float(row["l_c"]) != 0.0 or float(row["l_p"]) != 0.0 for row in rows)
    checks.check("grounding_losses_active", grounded, "cluster and perceptual losses are 0 on every step")


def without_wall_ms(rows: list[dict]) -> list[tuple]:
    return [tuple(v for k, v in row.items() if k != "wall_ms") for row in rows]


def train_iteration(state, workload, seed, index, tracer, checks, record) -> None:
    run_dir = state["work"] / f"train{index}"
    k = index % TRAIN_DATASETS
    argv = ["train", "--data", str(state["data_dirs"][k]), "--out", str(run_dir)]
    argv += TRAIN_WORKLOADS[workload]["flags"] + ["--seed", str(seed)]
    code, seconds, _ = cli_call(argv, tracer)
    record["calls"] += 1
    checks.check("cli_exit_0", code == 0, f"train call {index} exited {code}")
    if code != 0:
        record["failed"] += 1
        return
    rows = read_convergence(run_dir / "convergence.csv")
    check_train_rows(rows, checks)
    epochs = int(rows[-1]["epoch"])
    group = record["traced" if tracer else "untraced"]
    group["items"].append(state["captions_per_epoch"][k] * epochs)
    group["busy_s"].append(seconds)
    group["latency_ms"].extend(step_latencies_ms(rows))
    group["call_s"]["train"].append(seconds)
    outputs = (without_wall_ms(rows), sha256_file(run_dir / "checkpoint_best.json"))
    reference = record.setdefault("reference_output", {}).setdefault(k, outputs)
    checks.check(
        "train_deterministic",
        outputs == reference,
        f"train call {index} differs from call {k} on the same data in convergence.csv or checkpoint",
    )
    record["last_rows"] = rows
    shutil.rmtree(run_dir)


def check_metric_table(table: dict, checks: Checks) -> None:
    for key in ("BLEU-1", "BLEU-2", "BLEU-3", "BLEU-4", "ROUGE-L"):
        checks.check("metrics_in_range", 0.0 <= table[key] <= 100.0, f"{key}={table[key]}")
    checks.check("metrics_in_range", 0.0 <= table["CIDEr"] <= 1000.0, f"CIDEr={table['CIDEr']}")


def check_report(report: dict, checks: Checks) -> None:
    for space in ("original", "projected"):
        overlap = report["neighbor_overlap"][space]
        corr = report["similarity_correlation"][space]
        checks.check("analysis_in_range", 0.0 <= overlap <= 100.0, f"neighbor_overlap {space}={overlap}")
        checks.check("analysis_in_range", -100.0 <= corr <= 100.0, f"similarity_correlation {space}={corr}")
        for key in ("inter_cluster", "intra_cluster"):
            checks.check("analysis_in_range", math.isfinite(report[key][space]), f"{key} {space}")


def eval_iteration(state, workload, seed, index, tracer, checks, record) -> None:
    common = ["--checkpoint", str(state["checkpoint"]), "--data", str(state["data_dir"]), "--split", "test"]
    outputs = {}
    total = 0.0
    group = record["traced" if tracer else "untraced"]
    for command in ("evaluate", "analyze"):
        code, seconds, out = cli_call([command, *common], tracer)
        record["calls"] += 1
        checks.check("cli_exit_0", code == 0, f"{command} call {index} exited {code}")
        if code != 0:
            record["failed"] += 1
            return
        outputs[command] = json.loads(out)
        group["call_s"][command].append(seconds)
        total += seconds
    check_metric_table(outputs["evaluate"], checks)
    check_report(outputs["analyze"], checks)
    cider_eval = outputs["evaluate"]["CIDEr"]
    cider_analyze = outputs["analyze"]["cider"]
    checks.check(
        "evaluate_analyze_same_cider",
        math.isclose(cider_eval, cider_analyze, rel_tol=1e-12, abs_tol=1e-12),
        f"evaluate CIDEr {cider_eval} != analyze cider {cider_analyze}",
    )
    reference = record.setdefault("reference_output", outputs)
    checks.check("eval_deterministic", outputs == reference, f"iteration {index} output differs from iteration 0")
    record["eval_cider"] = cider_eval
    group["items"].append(2 * state["test_images"])
    group["busy_s"].append(total)
    group["latency_ms"].append(1000.0 * total)


def new_group() -> dict:
    return {"items": [], "busy_s": [], "latency_ms": [], "call_s": {"train": [], "evaluate": [], "analyze": []}}


def run_loop(state, workload, seed, seconds, trace, checks) -> tuple[dict, Tracer | None]:
    """Closed loop, one caller; in a traced run even iterations stay untraced."""
    iteration = eval_iteration if workload == EVAL_WORKLOAD else train_iteration
    record = {"calls": 0, "failed": 0, "untraced": new_group(), "traced": new_group()}
    tracer = Tracer() if trace else None
    started = time.perf_counter()
    index = 0
    while index < MIN_ITERATIONS or time.perf_counter() - started < seconds:
        traced = trace and index % 2 == 1
        if traced:
            tracer.install()
        try:
            iteration(state, workload, seed, index, tracer if traced else None, checks, record)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            tracer.end_iteration()
        index += 1
        if record["failed"]:
            break
    record["iterations"] = index
    record["loop_s"] = time.perf_counter() - started
    return record, tracer


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def end_to_end(group: dict) -> dict:
    latency = group["latency_ms"]
    if not latency:
        return {}
    # Work over time summed across calls: the calls are few and long, and a
    # ratio of sums weighs every second of the run alike. Latency is a mean,
    # not a median, for the same reason: the host's speed drifts over seconds,
    # and the mean of a run's samples moves less between runs than their median.
    return {
        "items_per_s": metric(sum(group["items"]) / sum(group["busy_s"]), "1/s", len(group["items"])),
        "latency_ms.mean": metric(statistics.fmean(latency), "ms", len(latency)),
        "latency_ms.p95": metric(quantile(latency, 95), "ms", len(latency)),
    }


def overhead_pct(traced: dict, untraced: dict) -> dict:
    """Slowdown of each per-call end-to-end metric under tracing, in percent."""
    out = {}
    for name, entry in untraced.items():
        if name not in traced:
            continue
        base = entry["value"]
        seen = traced[name]["value"]
        slowdown = base / seen if name == "items_per_s" else seen / base
        samples = min(entry["samples"], traced[name]["samples"])
        out["tracing.overhead." + name] = metric(100.0 * (slowdown - 1.0), "%", samples)
    return out


def per_layer(record: dict, tracer: Tracer) -> dict:
    n = max(tracer.iterations, 1)
    out = {}
    for name in SPAN_NAMES:
        calls = len(tracer.self_ns.get(name, ()))
        out[name + ".ms"] = metric(tracer.median_self_ms(name), "ms", calls)
        out[name + ".calls"] = metric(tracer.calls(name), "count", n)
        if name in INCLUSIVE:
            out[name + ".incl_ms"] = metric(tracer.median_incl_ms(name), "ms", calls)
    c = tracer.counters
    steps = c["clip_steps"]
    step_tensors = tracer.tensors - tracer.span_tensors["training.val_decode"]
    pools = c["pool_sizes"]
    out.update(
        {
            "model.decoded_tokens": metric(c["model.decoded_tokens"] / n, "count", n),
            "model.checkpoint_bytes": metric(c["model.checkpoint_bytes"], "bytes", n),
            "autodiff.tensors_per_step": metric(step_tensors / steps if steps else 0.0, "count", steps),
            "losses.pool_size": metric(statistics.median(pools) if pools else 0.0, "count", len(pools)),
            "losses.triplet_yield": metric(
                c["triplet_valid"] / c["triplet_draws"] if c["triplet_draws"] else 0.0, "ratio", c["triplet_draws"]
            ),
            "losses.triplet_draws": metric(c["triplet_draws"] / n, "count", n),
            "losses.pair_yield": metric(
                c["pair_valid"] / c["pair_draws"] if c["pair_draws"] else 0.0, "ratio", c["pair_draws"]
            ),
            "losses.pair_draws": metric(c["pair_draws"] / n, "count", n),
            "training.steps": metric(steps / n, "count", n),
            "training.clipped_share": metric(c["clipped_steps"] / steps if steps else 0.0, "ratio", steps),
        }
    )
    rows = record.get("last_rows") or []
    vals = [float(r["val_cider"]) for r in rows if r["val_cider"]]
    out["training.final_xe_loss"] = metric(float(rows[-1]["l_xe"]) if rows else 0.0, "nats", len(rows))
    out["training.best_val_cider"] = metric(max(vals) if vals else 0.0, "score", len(vals))
    for command, values in record["untraced"]["call_s"].items():
        out[f"cli.{command}.s"] = metric(statistics.median(values) if values else 0.0, "s", len(values))
    out.update(overhead_pct(end_to_end(record["traced"]), end_to_end(record["untraced"])))
    out["tracing.spans"] = metric(tracer.total_spans / n, "count", n)
    out["tracing.nesting_violations"] = metric(tracer.nesting_violations, "count", tracer.total_spans)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = args.workdir
    work.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    state = set_up(args.workload, args.seed, work, checks)
    state["work"] = work
    ready = time.monotonic()
    if args.setup_only:
        (work / "setup.json").write_text(json.dumps({"ready_monotonic": ready, "ok": checks.all_ok}))
        return 0

    record, tracer = run_loop(state, args.workload, args.seed, args.seconds, args.trace, checks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        checks.check("trace_nesting", tracer.nesting_violations == 0, f"{tracer.nesting_violations} spans")
        metrics = per_layer(record, tracer)
        with open(work / "trace.jsonl", "w") as fh:
            for span in tracer.first_iteration:
                fh.write(json.dumps(span) + "\n")
    else:
        metrics = end_to_end(record["untraced"])
        metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB", 1)
    result = {
        "ready_monotonic": ready,
        "attempted": record["calls"],
        "failed": record["failed"],
        "iterations": record["iterations"],
        "loop_s": record["loop_s"],
        "checks": checks.results,
        "correct": checks.all_ok,
        "metrics": metrics,
        "fingerprints": state["fingerprints"],
        "environment": environment(),
        "eval_cider": record.get("eval_cider"),
    }
    (work / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
