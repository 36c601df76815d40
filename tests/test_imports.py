"""Every name a module of the package imports is read somewhere in that
module.  No linter is part of the test run, so this is the check that
catches an import left behind when its last use goes.  ``__init__.py``
is skipped: its imports are the public API."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "meyersig"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


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
