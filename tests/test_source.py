"""Checks on the repository's own text: README's Python runs as written, and
every name a module under src/viewsync/ imports is used in it."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "viewsync"


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
