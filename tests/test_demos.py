"""Every name a demo imports from deltashell exists; the demos are parsed, not run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _deltashell_imports(path):
    """(module, name) per name imported from deltashell; name is None for ``import deltashell...``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "deltashell":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "deltashell"]
    return found


def _resolves(module, name):
    """True when ``from module import name`` (or ``import module`` for name None) succeeds."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    return name is None or hasattr(mod, name) or importlib.util.find_spec(f"{module}.{name}") is not None


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    imports = _deltashell_imports(path)
    assert imports, f"{path.name} imports nothing from deltashell"
    missing = [f"{module}.{name}" if name else module for module, name in imports
               if not _resolves(module, name)]
    assert not missing, f"{path.name} imports names deltashell does not define: {missing}"
