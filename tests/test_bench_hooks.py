"""The benchmark under perfbench/ reaches into groundcap by name.

``perfbench/tracing.py`` wraps functions by (module, attribute) and
``perfbench/workload.py`` imports a few names directly. Moving or renaming
any of them must fail here rather than crash a traced benchmark run. So
must a change in how the tracer calls into the program: it replaces
``Tensor.__init__`` with a function of ``(obj, data)``, and its observers
read the draw count, the clip norm and the checkpoint path as the second
positional argument of the samplers, ``clip_global_norm`` and
``save_checkpoint``. ``tools/step_memory.py`` reaches in too: it replaces
``training._train_step`` and reads the workload's training flags. So does
``tools/paired_steps.py``, which reads the flags, the data spec and the
benchmark's reading of ``convergence.csv``, and ``tools/paired_setup.py``,
which runs ``workload.py --setup-only`` and reads its ``setup.json``.
"""

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

from groundcap import cli

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    spans = load_tracing().SPANS
    assert spans
    for module_name, attr, _ in spans:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr} is not callable"


def test_names_the_workload_imports_exist():
    from groundcap import cli, data, kernels, training

    assert isinstance(kernels.USE_NUMBA, bool)
    assert callable(cli.main)
    for name in ("Dataset", "SyntheticSpec", "generate_synthetic_dataset", "save_dataset"):
        assert hasattr(data, name), name
    assert callable(training.load_for_inference)


# The fused teacher-forced op runs its cells and attention in ``kernels``;
# these autodiff ops are traced but no command reaches them.
UNREACHED_SPANS = {"autodiff.lstm_cell", "autodiff.attend"}


def test_traced_train_evaluate_analyze_fill_every_span_and_counter(tmp_path):
    data, run = tmp_path / "data", tmp_path / "run"
    assert cli.main([
        "generate-data", "--out", str(data), "--classes", "3", "--images", "60",
        "--feature-size", "12", "--objects-min", "2", "--objects-max", "3", "--seed", "9",
    ]) == 0
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main([
            "train", "--data", str(data), "--out", str(run), "--hidden-size", "8",
            "--min-count", "1", "--batch-size", "8", "--sample-size", "10", "--max-epochs", "1",
            "--learning-rate", "0.01",  # so that the captions, and ROUGE-L's LCS, are not empty
            "--use-cluster-loss", "--use-perceptual-loss",
        ]) == 0
        inference = ["--checkpoint", str(run / "checkpoint_best.json"), "--data", str(data)]
        assert cli.main(["evaluate", *inference]) == 0
        vectors = tmp_path / "vectors.jsonl"
        assert cli.main(["analyze", *inference, "--neighbor-k", "1", "--vectors", str(vectors)]) == 0
        tracer.end_iteration()
    finally:
        tracer.uninstall()

    assert tracer.nesting_violations == 0
    for name in tracing.SPAN_NAMES:
        assert (tracer.calls(name) > 0) == (name not in UNREACHED_SPANS), name
    counters = tracer.counters
    assert counters["pool_sizes"] and min(counters["pool_sizes"]) > 0
    for name in ("triplet_draws", "triplet_valid", "pair_draws", "pair_valid", "clip_steps",
                 "model.decoded_tokens"):
        assert counters[name] > 0, name
    assert counters["model.checkpoint_bytes"] == (run / "checkpoint_best.json").stat().st_size
    assert tracer.tensors > 0


def test_step_memory_tool_runs_one_step():
    # tools/step_memory.py replaces training._train_step and reads the
    # train-grounded workload's flags from perfbench/workload.py
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_memory.py"), "--steps", "1", "--hidden-size", "8"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = re.search(r"^transient peak per step: max ([\d.]+) MB, median ([\d.]+) MB$",
                     proc.stdout, re.MULTILINE)
    assert line, proc.stdout
    high, median = map(float, line.groups())
    assert 0 < median <= high


def test_paired_steps_tool_runs_one_pair():
    # tools/paired_steps.py times the train-grounded workload's train call in
    # two trees; here both are this tree, so the logs must agree
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "paired_steps.py"), str(ROOT), str(ROOT), "--pairs", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.search(r"^pair 1 \(base first\): base [\d.]+, change [\d.]+$", proc.stdout, re.MULTILINE)
    assert re.search(r"^median ratio change/base [\d.]+; change faster in [01] of 1 pairs$",
                     proc.stdout, re.MULTILINE), proc.stdout


def test_paired_setup_tool_runs_one_pair():
    # tools/paired_setup.py times the benchmark's set-up probes in two trees
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "paired_setup.py"), str(ROOT), str(ROOT), "--pairs", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.search(r"^pair 1 \(base first\): base [\d.]+, change [\d.]+$", proc.stdout, re.MULTILINE)
    assert re.search(r"^median ratio change/base [\d.]+; change faster in [01] of 1 pairs$",
                     proc.stdout, re.MULTILINE), proc.stdout


def test_paired_setup_tool_exits_1_on_a_failed_check(tmp_path):
    # a tree whose set-up reports ok: false, as a failed fingerprint check does
    fake = tmp_path / "fake"
    (fake / "perfbench").mkdir(parents=True)
    (fake / "perfbench" / "workload.py").write_text(
        "import json, sys, time\n"
        "from pathlib import Path\n"
        "work = Path(sys.argv[sys.argv.index('--workdir') + 1])\n"
        "work.mkdir(parents=True)\n"
        "(work / 'setup.json').write_text(json.dumps({'ready_monotonic': time.monotonic(), 'ok': False}))\n"
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "paired_setup.py"), str(ROOT), str(fake), "--pairs", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "pair 1: the change probe failed a set-up check" in proc.stdout
