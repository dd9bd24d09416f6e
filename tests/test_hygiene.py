"""Source hygiene: no module in the package imports a name it never uses,
no code outside the domain classes branches on the kind of a domain,
only the brute-force reference scans a domain grid, and the package stays
under a line-count ceiling.

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


def scoped_calls(text: str, matches) -> list[tuple[str, int]]:
    """(enclosing function, line) of each call for which matches(call) holds."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and matches(child):
                found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(ast.parse(text), ())
    return found


def kind_tests(text: str, classes: set[str]) -> list[tuple[str, int]]:
    """(enclosing function, line) of each isinstance(_, C) that names one
    of the classes, alone or in a tuple."""

    def matches(call: ast.Call) -> bool:
        if not (isinstance(call.func, ast.Name) and call.func.id == "isinstance"
                and len(call.args) == 2):
            return False
        kinds = call.args[1]
        names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
        return any(isinstance(k, ast.Name) and k.id in classes for k in names)

    return scoped_calls(text, matches)


def domain_kind_tests(text: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each isinstance(_, Simplex|Ball|Box)."""
    return kind_tests(text, DOMAIN_CLASSES)


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


# The document layer reads an outcome's kind off its class (its tag and
# fields, the CLI's exit code); the certificate checks and the scaling
# experiment are the only places that ask an outcome for its kind.
OUTCOME_CLASSES = {"Feasible", "Infeasible", "EpsilonInfeasible", "Exhausted"}


@pytest.mark.parametrize("path", ["harness/io.py", "harness/cli.py"])
def test_the_document_layer_never_asks_an_outcome_its_kind(path):
    assert kind_tests((SRC / path).read_text(), OUTCOME_CLASSES) == []


def test_the_check_sees_an_outcome_kind_test():
    source = ("def code(outcome):\n"
              "    if isinstance(outcome, Feasible):\n"
              "        return 0\n"
              "    return 2 if isinstance(outcome, (Infeasible, EpsilonInfeasible)) else 3\n"
              "EXIT = {Feasible: 0, Exhausted: 3}\n")
    assert kind_tests(source, OUTCOME_CLASSES) == [("code", 2), ("code", 4)]


# Grids are brute-force references, never proofs: a certificate is proved by
# the certified descent at every dimension.
GRID_CALLERS = {("harness/oracles.py", "brute_force_lambda_star")}


def grid_calls(text: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each call of a method named grid."""
    return scoped_calls(text, lambda call: (isinstance(call.func, ast.Attribute)
                                            and call.func.attr == "grid"))


def test_only_the_brute_force_reference_scans_a_grid():
    stray = [f"{path.relative_to(SRC)}:{line} (in {scope or 'module'})"
             for path in sorted(SRC.rglob("*.py"))
             for scope, line in grid_calls(path.read_text())
             if (str(path.relative_to(SRC)), scope) not in GRID_CALLERS]
    assert not stray, "grid scan outside the brute-force reference: " + ", ".join(stray)


def test_the_check_sees_a_grid_call():
    source = ("def f(domain):\n"
              "    return domain.grid(1e-3), domain._grid(1e-3), grid(0.1)\n"
              "class C:\n"
              "    def g(self, d):\n"
              "        return min(d.grid(\n            0.5))\n")
    assert grid_calls(source) == [("f", 2), ("C.g", 5)]


# `wc -l src/feasgame/*.py src/feasgame/harness/*.py`: growth past this takes
# a deliberate edit here, and a change that shrinks the package lowers it
MAX_SOURCE_LINES = 4434


def source_lines() -> int:
    files = [*SRC.glob("*.py"), *(SRC / "harness").glob("*.py")]
    return sum(path.read_bytes().count(b"\n") for path in files)


def test_the_package_stays_under_its_line_ceiling():
    assert source_lines() <= MAX_SOURCE_LINES
