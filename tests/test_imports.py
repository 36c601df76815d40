"""Every name a module of the package imports is read somewhere in that
module.  No linter is part of the test run, so this is the check that
catches an import left behind when its last use goes.  ``__init__.py``
is skipped: its imports are the public API.

The same ``ast`` walk holds the one-matrix-type design: a matrix is a
SymplecticMatrix holding its rows, so no module of the package or of the
tests names the retired second matrix type or its trusted constructor,
and no package module reads the ``.mat`` alias.  It also holds the one
owner of a Dehn-twist letter: its record, step, sign rules and minors are
defined in ``twist.py`` alone (the straight-line walks of
``presentations`` inline the step), which imports from ``exact`` alone.
Those straight-line walks take twist letters alone: none reads a name of
the non-twist path (tau_sp, the full product, a Bareiss determinant, the
inverses or the matrices).  And it deletes helpers with no caller: every
private function, class, constant or method of the package is read by
some package module."""

import ast
from pathlib import Path

import pytest

from meyersig.symplectic import SymplecticMatrix, random_symplectic

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "meyersig"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
RETIRED = {"IntMatrix", "_trusted"}
TWIST_NAMES = {
    "_twist", "_twist_step", "_twist_solve", "_minor_sign", "_sigma_minors", "_SIGMA_MINORS", "_det"
}
STRAIGHT_LINE_WALKS = {"_walk_2", "_walk_4", "_evaluate_2"}
NON_TWIST_NAMES = {"tau_sp", "_product", "_add_identity", "determinant", "_inverses", "matrices"}


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements in source that no expression
    of it reads; ``import a.b`` binds ``a``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_unused_imports_are_found():
    source = "import os.path\nfrom math import gcd, lcm as l\nfrom . import x\nos.sep\ny = gcd\n"
    assert unused_imports(source) == ["l", "x"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def named(source: str, names: set[str]) -> list[str]:
    """The identifiers of ``names`` that source imports, binds or reads: as
    a name, an attribute, an import alias or a def, class or argument name.
    String literals and comments do not count."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            found.update([node.name.split(".")[-1], node.asname])
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.arg):
            found.add(node.arg)
    return sorted(found & names)


def mat_readers(source: str) -> list[str]:
    """The innermost functions of source that read a ``.mat`` attribute, by
    name, and ``<module>`` for a read outside every function."""
    readers = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif isinstance(node, ast.Attribute) and node.attr == "mat" and isinstance(node.ctx, ast.Load):
            readers.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return sorted(readers)


def test_retired_names_are_found():
    source = (
        "from .m import IntMatrix as M\nimport a._trusted\nx.IntMatrix\ndef _trusted(rows): pass\n"
        "def f(IntMatrix): pass\ny = 'IntMatrix _trusted'\n"
    )
    assert named(source, RETIRED) == sorted(RETIRED)
    assert named("y = 'IntMatrix'  # _trusted\n", RETIRED) == []
    assert mat_readers("def f(m):\n    return m.mat.rows\nm.rows\n") == ["f"]
    assert mat_readers("m.mat\n") == ["<module>"]
    assert mat_readers("def f(m):\n    m.mat = 1\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_module_names_the_retired_matrix_type(path):
    assert named(path.read_text(encoding="utf-8"), RETIRED) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_package_module_reads_the_mat_alias(path):
    assert mat_readers(path.read_text(encoding="utf-8")) == []


def test_mat_alias_is_the_matrix_for_its_one_reader():
    """m.mat is m, kept only for ``benchmarks/workloads.py::_rows``, which
    reads ``m.mat.rows``; it goes when that function reads ``.rows``."""
    for m in (SymplecticMatrix.identity(2), random_symplectic(3, 9, 0), SymplecticMatrix([[1, 1], [0, 1]])):
        assert m.mat is m and m.mat.rows is m.rows
    readers = {}
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        if found := mat_readers(path.read_text(encoding="utf-8")):
            readers[path.name] = found
    assert readers == {"workloads.py": ["_rows"]}


def defined(source: str) -> set[str]:
    """The names source defines anywhere: by def or class, or as the
    target of an assignment, a loop or a with."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.add(node.id)
    return found


def test_definitions_are_found():
    source = "def f(): _g = 1\nclass C: pass\nA = {}\nfor k in A: pass\nf()\n"
    assert defined(source) == {"f", "_g", "C", "A", "k"}


def test_twist_letter_has_one_owner():
    owners = {name: [] for name in TWIST_NAMES}
    for path in sorted(PACKAGE.glob("*.py")):
        for name in defined(path.read_text(encoding="utf-8")) & TWIST_NAMES:
            owners[name].append(path.name)
    assert owners == {name: ["twist.py"] for name in TWIST_NAMES}
    tree = ast.parse((PACKAGE / "twist.py").read_text(encoding="utf-8"))
    assert {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level} == {"exact"}


def function_reads(source: str, functions: set[str], names: set[str]) -> dict[str, list[str]]:
    """{function: the identifiers of ``names`` it reads}, for each
    module-level function of ``functions`` that source defines."""
    return {
        node.name: sorted(read_names(ast.unparse(node)) & names)
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name in functions
    }


def test_function_reads_are_found():
    source = (
        "def f(p):\n    return p.matrices, tau_sp(p)\ndef g():\n    determinant = 1\n"
        "def h(m):\n    return _product(m)\n"
    )
    assert function_reads(source, {"f", "g"}, NON_TWIST_NAMES) == {"f": ["matrices", "tau_sp"], "g": []}


def test_straight_line_walks_read_no_non_twist_name():
    source = (PACKAGE / "presentations.py").read_text(encoding="utf-8")
    assert function_reads(source, STRAIGHT_LINE_WALKS, NON_TWIST_NAMES) == {name: [] for name in STRAIGHT_LINE_WALKS}


def private_definitions(source: str) -> set[str]:
    """The private names source defines at module level or in a class
    body: by def or class, or as an assignment target.  A dunder, and a
    name that is only underscores, is not private."""
    tree = ast.parse(source)
    bodies = [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    found = set()
    for body in bodies:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in found if name.startswith("_") and name.strip("_") and not name.endswith("__")}


def read_names(source: str) -> set[str]:
    """The names source reads: as a name, an attribute or an import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def unread_private_names(sources: list[str]) -> list[str]:
    """The private names that sources define and none of them reads."""
    defined_names = set().union(*map(private_definitions, sources))
    return sorted(defined_names - set().union(*map(read_names, sources)))


def test_unread_private_names_are_found():
    source = (
        "_A = 1\n_B: int = 2\n__all__ = []\n_ = 0\ndef _f(): _local = 1\ndef _g(): return _A\n"
        "class _C:\n    _k = 3\n    def _m(self): return self._k\n    def __init__(self): self._n = 1\n"
        "x = _C()._m, _g\n"
    )
    assert private_definitions(source) == {"_A", "_B", "_f", "_g", "_C", "_k", "_m"}
    assert unread_private_names([source]) == ["_B", "_f"]
    assert unread_private_names([source, "from .m import _B\nimport m._f\n"]) == []


def test_every_private_name_of_the_package_is_read():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []
