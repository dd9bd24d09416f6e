"""Source hygiene: no module in the package imports a name it never uses.

A package ``__init__`` re-exports what it imports, so it is skipped; an
import kept on purpose (names that call-site tracers wrap) carries
``# noqa: F401`` on its first line.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "feasgame"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(text: str) -> list[str]:
    """Names imported by the module source but never read, in import order."""
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name, _ in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import os.path\n"
              "from os import sep  # noqa: F401\n"
              "from json import (\n    dumps,\n    loads as decode,\n)\n\n"
              "print(math.pi, os.path.sep, dumps)\n")
    assert unused_imports(source) == ["decode"]
