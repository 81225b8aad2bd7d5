"""Every package module uses each name it imports.

pyflakes is not a test dependency, so this is a small stand-in for its
unused-import check (F401). A name counts as used when it appears as a
name anywhere in the module. `from __future__` imports are features, not
names, and an import marked `# noqa: F401` on its own line or on the first
line of its statement is exempt. `__init__.py` exists to re-export, so it
is not checked.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "listio_pfs"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never uses, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                marked = {lines[node.lineno - 1], lines[alias.lineno - 1]}
                if not any("# noqa: F401" in line for line in marked):
                    imported.append((alias.lineno,
                                     alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for _lineno, name in sorted(imported) if name not in used]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path\n"
              "from sys import (  # noqa: F401\n"
              "    argv,\n"
              ")\n"
              "from json import dumps, loads\n"
              "from re import sub  # noqa: F401\n"
              "print(loads)\n")
    assert unused_imports(source) == ["os", "os", "dumps"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
