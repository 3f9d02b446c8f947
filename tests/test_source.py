"""Checks on the repository's own text: README's Python runs as written,
every name a module under src/viewsync/ imports is used in it, and every
top-level definition in tests/ is named somewhere in tests/."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "viewsync"
TESTS = ROOT / "tests"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)


def test_readme_python_blocks_run_in_one_namespace():
    # the second block reads the first one's records and metrics
    blocks = python_blocks((ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(blocks) == 2
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md, python block {i + 1}", "exec"), namespace)


def imported_names(tree: ast.AST) -> list[str]:
    """Every name an import statement binds, at any depth; ``from __future__``
    binds none."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported_names(tree) if name not in used]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from typing import Iterable, Optional\n"
        "def f(x: Optional[int]) -> None:\n"
        "    import sys\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["js", "Iterable", "sys"]


# __init__.py imports to re-export, so it is exempt
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


@pytest.mark.parametrize("module", MODULES)
def test_every_name_a_module_imports_is_used_in_it(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def defined_names(stmt: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function's or class's,
    or each name an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    if isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return [node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)]


def unnamed_definitions(sources: dict[str, str]) -> list[str]:
    """Each top-level definition in the modules ``sources`` (file name ->
    text) that no other top-level statement of any of them names, as
    ``file:name``. Tests, fixtures and pytest hooks, which pytest itself
    names, are exempt."""
    stmts = [(module, stmt) for module, text in sources.items() for stmt in ast.parse(text).body]
    reads = [
        {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and type(n.ctx) is not ast.Store}
        for _, stmt in stmts
    ]
    named = Counter(name for names in reads for name in names)
    unnamed = []
    for (module, stmt), own in zip(stmts, reads):
        decorators = map(ast.unparse, getattr(stmt, "decorator_list", []))
        if any("fixture" in d for d in decorators):
            continue
        for name in defined_names(stmt):
            # named by no statement, or by its own alone
            if not name.startswith(("test_", "Test", "pytest_")) and named[name] == (name in own):
                unnamed.append(f"{module}:{name}")
    return unnamed


def test_unnamed_definitions_are_found():
    sources = {
        "a.py": "X, Y = 1, 2\ndef helper(n):\n    return helper(n - 1)\n",
        "b.py": "@pytest.fixture\ndef f():\n    return Y\ndef pytest_configure(c):\n    pass\n",
        "c.py": "class Unused:\n    pass\ndef test_c():\n    pass\n",
    }
    assert unnamed_definitions(sources) == ["a.py:X", "a.py:helper", "c.py:Unused"]


def test_every_top_level_definition_in_tests_is_named():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(TESTS.glob("*.py"))}
    assert unnamed_definitions(sources) == []
