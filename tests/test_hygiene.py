"""Source hygiene: no module in the package imports a name it never uses,
and no code outside the domain classes branches on the kind of a domain.

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


DOMAIN_CLASSES = {"Simplex", "Ball", "Box"}

# The places that ask whether a domain is a simplex because only a simplex
# has the capability they need; every other domain-kind question is a
# method of the domain classes.
CAPABILITY_TESTS = {
    ("solvers.py", "_point_learner"),  # MW plays distributions
    ("reductions.py", "strictify"),  # its constants assume the unit ball
    ("online.py", "ons_step"),  # the exact KKT route
    ("projections.py", "generalized_project"),  # the exact KKT route
    ("core.py", "NegEntropy.interval"),  # the tight -log n bound
}


def domain_kind_tests(text: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each isinstance(_, Simplex|Ball|Box)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance" and len(child.args) == 2):
                kinds = child.args[1]
                names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if any(isinstance(k, ast.Name) and k.id in DOMAIN_CLASSES for k in names):
                    found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(ast.parse(text), ())
    return found


def test_domain_kinds_are_asked_only_where_a_capability_needs_it():
    stray = [f"{path.relative_to(SRC)}:{line} (in {scope or 'module'})"
             for path in sorted(SRC.rglob("*.py"))
             for scope, line in domain_kind_tests(path.read_text())
             if (str(path.relative_to(SRC)), scope) not in CAPABILITY_TESTS]
    assert not stray, "branch on the domain kind: " + ", ".join(stray)


def test_the_check_sees_a_domain_kind_test():
    source = ("def f(domain, x):\n"
              "    if isinstance(x, float) or isinstance(domain, (Ball, Box)):\n"
              "        return 0\n"
              "class C:\n"
              "    def g(self, d):\n"
              "        return isinstance(d, Simplex)\n")
    assert domain_kind_tests(source) == [("f", 2), ("C.g", 6)]
