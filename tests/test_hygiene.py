"""Source hygiene: no module in the package imports a name it never uses,
no code outside the domain classes branches on the kind of a domain,
only the brute-force reference scans a domain grid, the packed groups
define no per-row methods, the package stays under a line-count
ceiling, and every hypothesis test draws the same examples on every run.

A package ``__init__`` re-exports what it imports, so it is skipped; an
import kept on purpose (names that call-site tracers wrap) carries
``# noqa: F401`` on its first line.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "feasgame"
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
    ("reductions.py", "strictify"),  # its guarantee assumes the unit ball
    ("online.py", "ons_step"),  # the exact KKT route
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
# the certified descent at every dimension.  The reference is the tests' own
# (tests/lattice.py), so no function of the package scans a grid.
GRID_CALLERS: set[tuple[str, str]] = set()


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


# The packed groups answer whole passes and their rows' bounds only; a
# question about one constraint goes to its scalar reference.
GROUP_METHODS = {"values", "both", "first", "quadratic_form", "bounds"}


def stray_group_methods(text: str) -> list[tuple[str, str]]:
    """(class, method) of each public method outside GROUP_METHODS that
    _Group or a class derived from it defines."""
    groups, found = {"_Group"}, []
    for cls in ast.parse(text).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        if cls.name in groups or any(isinstance(b, ast.Name) and b.id in groups
                                     for b in cls.bases):
            groups.add(cls.name)
            found += [(cls.name, fn.name) for fn in cls.body
                      if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not fn.name.startswith("_") and fn.name not in GROUP_METHODS]
    return found


def test_packed_groups_define_only_the_passes():
    assert stray_group_methods((SRC / "core.py").read_text()) == []


def test_the_check_sees_a_stray_group_method():
    source = ("class _Group:\n    def first(self): pass\n    def error(self): pass\n"
              "class _Rows(_Group):\n    def _z(self): pass\n    def row(self): pass\n"
              "class _More(_Rows):\n    def rows(self): pass\n"
              "class Other:\n    def row(self): pass\n")
    assert stray_group_methods(source) == [("_Group", "error"), ("_Rows", "row"),
                                           ("_More", "rows")]


# `wc -l src/feasgame/*.py src/feasgame/harness/*.py`: growth past this takes
# a deliberate edit here, and a change that shrinks the package lowers it
MAX_SOURCE_LINES = 4290


def source_lines() -> int:
    files = [*SRC.glob("*.py"), *(SRC / "harness").glob("*.py")]
    return sum(path.read_bytes().count(b"\n") for path in files)


def test_the_package_stays_under_its_line_ceiling():
    assert source_lines() <= MAX_SOURCE_LINES


def unpinned_settings(text: str) -> list[int]:
    """Lines of the settings(...) calls that lack derandomize=True or
    database=None: such a test draws new examples on each run, and replays
    from .hypothesis/ whatever failed before, so a run depends on the last."""
    return [node.lineno for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "settings"
            and not {("derandomize", True), ("database", None)} <= {
                (kw.arg, kw.value.value) for kw in node.keywords
                if isinstance(kw.value, ast.Constant)}]


def test_every_hypothesis_test_is_derandomized():
    stray = [f"{path.name}:{line}" for path in sorted(TESTS.glob("*.py"))
             for line in unpinned_settings(path.read_text())]
    assert not stray, "settings without derandomize=True, database=None: " + ", ".join(stray)


def test_the_check_sees_an_unpinned_settings():
    source = ("@settings(max_examples=5, deadline=None)\n"
              "def test_a(x): pass\n"
              "@settings(max_examples=5, derandomize=True, database=None)\n"
              "def test_b(x): pass\n"
              "@settings(derandomize=True,\n          database=False)\n"
              "def test_c(x): pass\n"
              "@settings(database=None)\n"
              "def test_d(x): pass\n")
    assert unpinned_settings(source) == [1, 5, 8]
