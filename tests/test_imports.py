"""The runtime is standard-library only: every module ``src/sumkit`` imports
is in the standard library or is ``sumkit`` itself.  Static guards on the
sources: each module imports only the modules below it, no builtin ``sum``,
no entry-by-entry walks, no unused imports, no definition that nothing in
the package reads."""

import ast
import os
import subprocess
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


# the standard-library modules the package imports at module level, pinned.
# perfbench's ``setup_s`` times a fresh ``import sumkit.cli`` under
# ``subprocess.run(..., timeout=60)``, which sees the child exit only at polls
# near 63, 113 and 163 ms.  Where the environment sets PYTHONDONTWRITEBYTECODE=1
# (the child inherits it), every such import compiles the package again:
# ``compile()`` of the sources takes about 24 ms in all (classes 5.4 ms,
# operators 5.0, core 4.1, cli 3.7, minilang 2.7, duals 2.3; best of 15,
# CPython 3.11 on a 2-vCPU VM), and a module that pulls in more adds their
# load time too (``dataclasses`` brings ``inspect``, ``ast``, ``dis`` and
# ``tokenize``).  So one more module can move ``setup_s`` by a whole poll;
# adding one is a visible edit
STDLIB_IMPORTS = {"__future__", "argparse", "array", "bisect", "csv",
                  "decimal", "enum", "fractions", "functools", "itertools", "json",
                  "math", "operator", "os", "re", "sys", "typing"}


def test_importing_the_cli_generates_no_code():
    # ``dataclasses`` compiles the methods it writes for each class, and it
    # imports ``inspect``, which brings ``ast``, ``dis`` and ``tokenize``
    out = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, sumkit.cli; print(sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(SOURCES[0].parents[1])},
        capture_output=True, text=True, check=True).stdout
    loaded = set(ast.literal_eval(out)) & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert not loaded, f"import sumkit.cli loads {sorted(loaded)}"


def module_level_imports(tree: ast.Module) -> set[str]:
    """Top-level names of the absolute imports among the statements of ``tree``."""
    return imported_modules(ast.Module(
        body=[node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))],
        type_ignores=[]))


def test_the_standard_library_imports_are_pinned():
    names = set().union(*(module_level_imports(ast.parse(path.read_text(), filename=str(path)))
                          for path in SOURCES))
    assert names - {"sumkit"} == STDLIB_IMPORTS


def test_an_added_standard_library_import_is_caught():
    # a function-level import is not at module level
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "from .core import ones\nimport random\n"
                     "def f():\n    import json\n")
    assert module_level_imports(tree) == {"__future__", "os", "random"}
    assert module_level_imports(tree) - STDLIB_IMPORTS == {"random"}


# the package's modules from the bottom up: each may import, at module level
# or inside a function, only the modules before it; __init__.py, which
# re-exports them all, is exempt
LAYERS = ["errors", "core", "operators", "spaces", "duals", "classes", "minilang", "cli"]


def package_imports(tree: ast.AST) -> set[str]:
    """The package modules that the imports anywhere in ``tree`` name, as
    ``from .m import x``, ``from . import m``, ``from sumkit.m import x`` or
    ``import sumkit.m``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("sumkit."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module if node.level == 0 else f"sumkit.{node.module or ''}"
            if module in ("sumkit", "sumkit."):
                names.update(alias.name for alias in node.names)
            elif module and module.startswith("sumkit."):
                names.add(module.split(".")[1])
    return names


def upward_imports(trees: dict[str, ast.Module]) -> list[str]:
    """``module -> imported`` for every package import of a module that is
    not below the importer in ``LAYERS``."""
    bad = []
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        below = LAYERS[:LAYERS.index(Path(module).stem)]
        bad.extend(f"{module} -> {name}" for name in sorted(package_imports(tree))
                   if name not in below)
    return bad


def test_modules_import_only_the_layers_below():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assert sorted(LAYERS) == sorted(Path(module).stem for module in trees
                                    if module != "__init__.py")
    bad = upward_imports(trees)
    assert not bad, f"imports of a module not below the importer: {bad}"


def test_an_upward_import_is_caught():
    # a function-level import counts as much as a module-level one, in any
    # of the four spellings; a self-import is not below either
    trees = {"__init__.py": ast.parse("from .cli import run\n"),
             "operators.py": ast.parse("from .core import ones\nfrom . import errors\n"
                                       "def basis():\n    from .spaces import domain_space\n"),
             "core.py": ast.parse("from .errors import E\nimport sumkit.cli\n"
                                  "from sumkit import duals\nfrom sumkit.core import x\n"),
             "spaces.py": ast.parse("import os.path\nfrom math import inf\n")}
    assert upward_imports(trees) == ["operators.py -> spaces", "core.py -> cli",
                                     "core.py -> core", "core.py -> duals"]


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


# the entry-wise walks that stay, by module and top-level definition
ENTRY_WALKS_ALLOWED = {
    # the roundtrip reads each row descending, then ascending, as a fresh
    # evaluation would
    ("classes.py", "reduction_roundtrip_sides"),
    # ``row`` falls back to an entry rule one cell at a time
    ("operators.py", "TriangleOperator"),
    # back-substitution reads the diagonal first, so ``inverse --matrix
    # expr:1/(n-3)`` names k=3 (test_first_error_is_the_first_bad_entry_read)
    ("operators.py", "invert_triangle"),
    # the entry-wise product rule reads R down a column
    ("operators.py", "matrix_product"),
}


def entry_calls(tree: ast.Module) -> list[tuple[str, int]]:
    """(top-level definition, line) of every ``.entry(`` call in ``tree``."""
    calls = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        calls.extend((owner, node.lineno) for node in ast.walk(top)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "entry")
    return calls


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_cells_are_read_by_rows(path):
    # consecutive cells come from one ``row(n, upto, start)`` read
    tree = ast.parse(path.read_text(), filename=str(path))
    walks = [call for call in entry_calls(tree)
             if (path.name, call[0]) not in ENTRY_WALKS_ALLOWED]
    assert not walks, f"{path.name} reads entries one by one at {walks}"


# the classes that keep cells: every other definition reads them through
# ``row``, ``entry`` or ``at``, whatever keeps them
STORAGE_OWNERS = {("operators.py", "TriangleOperator"), ("core.py", "LazySequence")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_kept_cells_are_read_only_by_their_class(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [(top.name, node.lineno) for top in tree.body if hasattr(top, "name")
             and (path.name, top.name) not in STORAGE_OWNERS
             for node in ast.walk(top)
             if isinstance(node, ast.Attribute) and node.attr in ("_rows", "_memo")]
    assert not reads, f"{path.name} reads kept cells at {reads}"


def test_an_entry_walk_is_caught():
    # a walk in a nested function, a comprehension, module code, and a
    # lambda in a method that wraps a row as a sequence of entries
    tree = ast.parse("def reduction_roundtrip_sides(B):\n    def sides(n):\n"
                     "        return B.entry(n, 1)\n"
                     "def scan(A):\n    return [A.entry(1, k) for k in range(3)]\n"
                     "x = A.entry(1, 1)\ny = entry(1, 1)\n"
                     "class Matrix:\n    def row_seq(self, n):\n"
                     "        return Seq(lambda k: self.entry(n, k))\n"
                     "def prerequisite(A, n):\n    return Seq(A.row(n, 3))\n")
    assert entry_calls(tree) == [("reduction_roundtrip_sides", 3), ("scan", 5),
                                 ("<module>", 6), ("Matrix", 10)]


# names a module imports and never uses, kept because something outside the
# package looks them up there: perfbench/tracing.py binds these two in cli,
# and space_evidence in spaces (test_tracing_spans.py checks that it resolves)
UNUSED_IMPORTS_ALLOWED = {("cli.py", "pairing_identity_check"),
                          ("cli.py", "verify_reduction_roundtrip"),
                          ("spaces.py", "space_evidence")}


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a top-level import of ``tree`` binds that no name in it reads
    (``__future__`` imports aside)."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.extend(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", [path for path in SOURCES if path.name != "__init__.py"],
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = [name for name in unused_imports(tree)
              if (path.name, name) not in UNUSED_IMPORTS_ALLOWED]
    assert not unused, f"{path.name} imports {unused} and never uses them"


def test_an_unused_import_is_caught():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "import json as js\nfrom math import inf, nan\n"
                     "def f():\n    from re import compile\n    return os, nan\n")
    assert unused_imports(tree) == ["js", "inf"]


# definitions no module in the package reads, kept because the acceptance
# tests call them (perfbench/tracing.py also wraps the last two, in cli)
CALLERLESS_ALLOWED = {"ak_tail_norm", "all_ones", "pairing_identity_check",
                      "verify_reduction_roundtrip"}


def read_names(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads, bare (``f``) or as an attribute (``x.f``)."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)})


def callerless(trees: dict[str, ast.Module]) -> list[str]:
    """``module:name`` of every function and class (dunder methods aside)
    whose name no module but ``__init__.py`` reads; re-exporting a name is
    not a use of it."""
    read = set().union(*(read_names(tree) for module, tree in trees.items()
                         if module != "__init__.py"))
    return [f"{module}:{node.name}" for module, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in read]


def test_every_definition_is_read():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    unread = [entry for entry in callerless(trees)
              if entry.split(":")[1] not in CALLERLESS_ALLOWED]
    assert not unread, f"defined and never read in the package: {unread}"


def test_a_callerless_definition_is_caught():
    # a method read as an attribute, a function read in its own module and
    # one read in another are used; a store (``self.m = 1``) and a re-export
    # in __init__.py are not; dunder methods are exempt
    trees = {"__init__.py": ast.parse("from .a import f, g, h\n__all__ = ['h']\n"),
             "a.py": ast.parse("def f():\n    return g\nclass C:\n"
                               "    def __init__(self):\n        self.m = 1\n"
                               "    def m(self):\n        pass\n"
                               "    def used(self):\n        pass\n"
                               "x = C().used\ny = f\n"),
             "b.py": ast.parse("def g():\n    pass\ndef h():\n    pass\n")}
    assert callerless(trees) == ["a.py:m", "b.py:h"]
