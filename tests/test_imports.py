"""Every name a module of the package imports is read somewhere in that
module.  No linter is part of the test run, so this is the check that
catches an import left behind when its last use goes.  ``__init__.py``
is skipped: its imports are the public API.

The same ``ast`` walk holds the one-matrix-type design: a matrix is a
SymplecticMatrix holding its rows, so no module of the package or of the
tests names the retired second matrix type or its trusted constructor,
and no package module reads the ``.mat`` alias."""

import ast
from pathlib import Path

import pytest

from meyersig.symplectic import SymplecticMatrix, random_symplectic

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "meyersig"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
RETIRED = {"IntMatrix", "_trusted"}


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
