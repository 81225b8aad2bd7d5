"""Every package module uses each name it imports, and every public name
has a user outside the tests.

pyflakes is not a test dependency, so this is a small stand-in for its
unused-import check (F401). A name counts as used when it appears as a
name anywhere in the module. `from __future__` imports are features, not
names, and an import marked `# noqa: F401` on its own line or on the first
line of its statement is exempt. `__init__.py` exists to re-export, so it
is not checked.

A name in `listio_pfs.__all__` must be used by another package module, by
perfbench/ or tools/ (as a name, an attribute or an imported name), or be
named in a backtick code span of README.md, where prose names code (a CSV
header in a fenced block does not count); a name only the tests use
belongs in its module alone.
"""

import ast
import re
from pathlib import Path

import pytest

import listio_pfs

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "listio_pfs"
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


def names_used(source: str) -> set[str]:
    """The names, attributes and imported names a module's code mentions."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_names_used_ignores_strings_and_comments():
    source = ("from a import b  # c\n"
              "d.e('f')\n")
    assert names_used(source) == {"b", "d", "e"}


OUTSIDE = [p for d in ("perfbench", "tools")
           for p in sorted((ROOT / d).rglob("*.py"))]
USES = {p: names_used(p.read_text()) for p in MODULES + OUTSIDE}
# The text of README.md's one-line backtick code spans.
README_CODE = "\n".join(re.findall(r"`([^`\n]+)`",
                                   (ROOT / "README.md").read_text()))


@pytest.mark.parametrize("name", listio_pfs.__all__)
def test_every_public_name_has_a_user_outside_the_tests(name):
    module = getattr(listio_pfs, name).__module__.rsplit(".", 1)[1]
    users = [p.name for p, used in USES.items()
             if name in used and p != PACKAGE / f"{module}.py"]
    if re.search(rf"\b{name}\b", README_CODE):
        users.append("README.md")
    assert users, f"{name} is used only by the tests; drop it from __all__"
