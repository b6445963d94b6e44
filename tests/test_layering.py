"""No module of ``groundcap`` uses another module's private name.

A name with one leading underscore belongs to the module that defines it.
The check parses ``src/groundcap/*.py`` and reports an import of another
module's private name (``from .data import _read``) and a private attribute
used through a module alias (``ad._helper`` after
``from . import autodiff as ad``).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "groundcap"
MODULES = sorted(SRC.glob("*.py"))


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_uses(source):
    """Each use of another groundcap module's private name in ``source``."""
    tree = ast.parse(source)
    aliases = set()  # local names bound to groundcap modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not (node.level or module == "groundcap" or module.startswith("groundcap.")):
                continue
            for alias in node.names:
                if module in ("", "groundcap"):  # from . import kernels
                    aliases.add(alias.asname or alias.name)
                if _private(alias.name):
                    found.append(f"imports {'.' * node.level}{module}.{alias.name}")
        elif isinstance(node, ast.Import):  # import groundcap.data as gd
            aliases.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("groundcap."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            found.append(f"uses {node.value.id}.{node.attr}")
    return found


def test_the_check_sees_both_forms():
    source = (
        "from . import autodiff as ad\n"
        "from .data import _read, load\n"
        "import groundcap.model as gm\n"
        "def f():\n"
        "    return ad._helper, load._cache, gm._blocks\n"
    )
    assert sorted(private_uses(source)) == [
        "imports .data._read", "uses ad._helper", "uses gm._blocks"
    ]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_module_uses_another_modules_private_name(path):
    assert private_uses(path.read_text()) == []
