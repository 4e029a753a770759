"""The public surface resolves: every name in a module's ``__all__``, and every
(module, attribute) the benchmark's span recorder wraps by name."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import deltashell

MODULES = sorted(info.name for info in pkgutil.iter_modules(deltashell.__path__))
SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _attribute(obj, path):
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"deltashell.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"deltashell.{module}.__all__ names what the module does not define: {missing}"


def _span_targets():
    """The ``TARGETS`` tuple of the span recorder, read from its source without importing it."""
    for node in ast.parse(SPANS.read_text(), filename=str(SPANS)).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no TARGETS")


def test_span_targets_resolve():
    # the recorder looks each one up with getattr; a missing name breaks every traced run
    targets = _span_targets()
    assert targets
    missing = []
    for module, path, _ in targets:
        try:
            _attribute(importlib.import_module(f"deltashell.{module}"), path)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{path}")
    assert not missing, f"span targets that deltashell does not define: {missing}"


SRC = Path(deltashell.__file__).resolve().parent


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads: not in its code, its annotations or its ``__all__``.
    Lines marked ``# noqa: F401`` and ``from __future__`` imports are exempt."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    # MODULES holds no __init__, whose imports are re-exports
    unused = _unused_imports(SRC / f"{module}.py")
    assert not unused, f"imported and never used: {unused}"


def _chunk_bodies(path: Path) -> list[ast.AST]:
    """The functions and lambdas a module passes to ``map_chunks``, a named one looked up in the
    function that passes it; a body that cannot be resolved there is returned as its name."""
    bodies = []
    for scope in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(scope, ast.FunctionDef):
            continue
        defs = {node.name: node for node in ast.walk(scope) if isinstance(node, ast.FunctionDef)}
        for call in ast.walk(scope):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "map_chunks":
                body = call.args[0]
                bodies.append(defs.get(body.id, body.id) if isinstance(body, ast.Name) else body)
    return bodies


def test_no_matmul_in_row_chunk_bodies():
    # a body runs on a helper thread beside the others, so a BLAS call there would run its own
    # threads on top of them; products go through _dense.matmul, outside the bodies
    bodies = {f"{path.name}:{getattr(body, 'lineno', body)}": body for path in sorted(SRC.glob("*.py"))
              for body in _chunk_bodies(path)}
    assert len(bodies) >= 4
    unresolved = [name for name, body in bodies.items() if isinstance(body, str)]
    assert not unresolved, f"map_chunks bodies not defined where they are passed: {unresolved}"
    with_matmul = [name for name, body in bodies.items()
                   if any(isinstance(node, ast.MatMult) for node in ast.walk(body))]
    assert not with_matmul, f"map_chunks bodies with an @ product: {with_matmul}"


def test_one_source_table():
    # the far rule's coefficients per source are built once, by boundary._sources: the far
    # field reads no cell or panel rule, and the kernel rows join no per-source arrays
    rules = {"panel_area", "panel_factor", "cell_volume"} & {
        node.attr for node in ast.walk(ast.parse((SRC / "farfield.py").read_text())) if isinstance(node, ast.Attribute)}
    assert not rules, f"farfield.py reads {sorted(rules)}"
    rows = next(node for node in ast.walk(ast.parse((SRC / "boundary.py").read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == "_kernel_rows")
    joins = [node.lineno for node in ast.walk(rows) if isinstance(node, ast.Attribute) and node.attr == "concatenate"]
    assert not joins, f"boundary._kernel_rows calls np.concatenate at lines {joins}"
