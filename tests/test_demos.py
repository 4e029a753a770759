"""Every name a demo imports from deltashell exists, and every call of an imported
function binds to its signature; the demos are parsed, not run."""

import ast
import importlib
import importlib.util
import inspect
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


def _imported_callables(tree):
    """Local name -> object for each callable a demo imports with ``from deltashell... import``."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "deltashell":
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(module, alias.name, None)
                if callable(obj):
                    found[alias.asname or alias.name] = obj
    return found


def _unbound_calls(source, filename="<demo>"):
    """'line: name: reason' per call of an imported deltashell callable that does not bind to
    its signature (positional count and keyword names); calls with * or ** are skipped."""
    tree = ast.parse(source, filename=filename)
    funcs = _imported_callables(tree)
    bad = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in funcs):
            continue
        if any(isinstance(arg, ast.Starred) for arg in node.args) or any(kw.arg is None for kw in node.keywords):
            continue
        try:
            inspect.signature(funcs[node.func.id]).bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as exc:
            bad.append(f"{node.lineno}: {node.func.id}: {exc}")
    return bad


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_calls_bind_to_signatures(path):
    bad = _unbound_calls(path.read_text(), str(path))
    assert not bad, f"{path.name} calls deltashell functions with arguments they do not take: {bad}"


def test_stale_call_is_caught():
    stale = (
        "from deltashell import fourier_identity_check, green_pairing_check, make_sphere_mesh\n"
        "green_pairing_check(sys1, sys2, rho1, rho2, R=1.8)\n"
        "fourier_identity_check(sys1, sys2, xi, w=0.5)\n"
        "make_sphere_mesh(1.0, subdivisions=2)\n"
        "green_pairing_check(*solutions, R=1.8)\n"
    )
    assert [line.split(":")[0] for line in _unbound_calls(stale)] == ["2", "3"]
