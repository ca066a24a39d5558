"""The runtime is standard-library only: every module ``src/sumkit`` imports
is in the standard library or is ``sumkit`` itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "sumkit").glob("*.py"))


def imported_modules(tree: ast.AST) -> set[str]:
    """Top-level names of the absolute imports anywhere in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_sources_are_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "cli.py", "operators.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = imported_modules(tree) - set(sys.stdlib_module_names) - {"sumkit"}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_a_third_party_import_is_caught():
    tree = ast.parse("import math\nimport numpy as np\n"
                     "def f():\n    from gmpy2 import mpq\n    from . import core\n")
    assert imported_modules(tree) - set(sys.stdlib_module_names) == {"numpy", "gmpy2"}


def builtin_sum_calls(tree: ast.AST) -> list[int]:
    """Line numbers of the calls to the bare name ``sum`` in ``tree``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sum"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_builtin_sum(path):
    # CPython 3.12 made float sum() compensated, so a report built on it would
    # depend on the interpreter; sums are reduce(add, ...), left to right
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = builtin_sum_calls(tree)
    assert not lines, f"{path.name} calls sum() on lines {lines}"


def test_a_sum_call_is_caught():
    tree = ast.parse("total = sum(map(abs, acc), zero)\ndef partial_sum(x):\n    return x\n")
    assert builtin_sum_calls(tree) == [1]
