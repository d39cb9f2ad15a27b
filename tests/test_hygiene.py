"""Source rules no behavioural test would catch.

Invariants are real checks, never ``assert`` statements, because running
under ``python -O`` strips those.  The package imports nothing outside the
standard library, so its runtime dependency list stays empty.  Every
private module-level name is used somewhere in the package, and every public
function or class serves the product: the package uses it, exports it, or the
benchmark traces it.  Every function the benchmark's tracer wraps still
exists, so a traced run reports all its per-layer metrics.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import po2buchi
from po2buchi.core import Po2Automaton

SOURCES = sorted(Path(po2buchi.__file__).resolve().parent.glob("*.py"))


def parsed():
    assert SOURCES
    for path in SOURCES:
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def used_names(tree, imports: bool = True) -> set[str]:
    """Names a module reads, attributes included, and, with ``imports``,
    the names it imports from other modules."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and imports:
            used.update(alias.name for alias in node.names)
    return used


def test_no_assert_statements():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in parsed()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_absolute_imports_are_stdlib_only():
    found = []
    for name, tree in parsed():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [
                f"{name}:{node.lineno} {m}"
                for m in modules
                if m.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []


def test_private_names_are_used():
    defined = set()
    used = set()
    for name, tree in parsed():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            defined.update(
                f"{name}:{t}" for t in targets if t.startswith("_") and not t.startswith("__")
            )
        used |= used_names(tree)
    assert sorted(d for d in defined if d.partition(":")[2] not in used) == []


def load_tracing():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    if not path.is_file():
        pytest.skip("no perfbench/tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_public_names_serve_the_product():
    # A public function or class that only the tests call belongs next to
    # the tests.  Importing a name into __init__ does not count as a use.
    traced = {
        f"{home}:{name}" for home, names in load_tracing().FUNCTIONS.values() for name in names
    }
    defined = []
    used = set()
    for name, tree in parsed():
        module = name.removesuffix(".py")
        defined += [
            (module, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        ]
        used |= used_names(tree, imports=module != "__init__")
    idle = [
        f"{module}.{name}"
        for module, name in defined
        if name not in used and name not in po2buchi.__all__ and f"{module}:{name}" not in traced
    ]
    assert idle == []


def test_traced_functions_exist():
    tracing = load_tracing()
    missing = [
        f"{home}.{name}"
        for home, names in tracing.FUNCTIONS.values()
        for name in names
        if not hasattr(importlib.import_module(f"po2buchi.{home}"), name)
    ]
    missing += [
        f"Po2Automaton.{method}"
        for method in tracing.METHODS.values()
        if method not in vars(Po2Automaton)
    ]
    assert missing == []
    cli = importlib.import_module("po2buchi.cli")
    assert any(name.startswith("_cmd_") for name in dir(cli))
