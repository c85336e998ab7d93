"""No module of the package imports a name it never uses.

No linter is part of the toolchain, and moving code between modules tends
to leave an import behind.  `__init__.py` is skipped: its imports are the
package's exports.
"""
import ast
from pathlib import Path

import pytest

import mupir

MODULES = sorted(p for p in Path(mupir.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of every name the source imports and never reads;
    `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from a.b import c as d, e\n"
              "import x.y\n"
              "from . import z\n"
              "print(sys.argv, e, z.w)\n")
    assert unused_imports(source) == [(2, "os"), (3, "d"), (4, "x")]
