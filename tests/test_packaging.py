"""Every runtime dependency that ``pyproject.toml`` declares is importable.

An install resolves these names, so one that is missing from the
environment the tests run in would make ``pip install -e .`` fail offline.
"""

import importlib.util
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_declared_dependency_is_importable():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    requirements = project["dependencies"]
    assert requirements
    for requirement in requirements:
        name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
        module = name.lower().replace("-", "_")
        assert importlib.util.find_spec(module) is not None, requirement
