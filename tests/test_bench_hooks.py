"""The benchmark under perfbench/ reaches into groundcap by name.

``perfbench/tracing.py`` wraps functions by (module, attribute) and
``perfbench/workload.py`` imports a few names directly. Moving or renaming
any of them must fail here rather than crash a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
