"""Source rules no behavioural test would catch.

Invariants are real checks, never ``assert`` statements, because running
under ``python -O`` strips those.  The package imports nothing outside the
standard library, so its runtime dependency list stays empty.
"""

import ast
import sys
from pathlib import Path

import po2buchi

SOURCES = sorted(Path(po2buchi.__file__).resolve().parent.glob("*.py"))


def parsed():
    assert SOURCES
    for path in SOURCES:
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


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
