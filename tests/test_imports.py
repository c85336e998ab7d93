"""No module of the package imports a name it never uses, and no private
module-level name goes unread.

No linter is part of the toolchain, and moving code between modules tends
to leave an import, or a helper nothing calls any more, behind.
`__init__.py` is skipped by the import check: its imports are the
package's exports.
"""
import ast
from pathlib import Path

import pytest

import mupir

PACKAGE = sorted(Path(mupir.__file__).resolve().parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of every private module-level function, class
    or assigned name in `sources` ({module: source}) that no top-level
    statement of any module reads, other than the one defining it; dunders
    are exempt.  A read is a loaded name, an attribute or an imported
    name, matched by name alone."""
    defined, reads = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            read = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    read.update(alias.name for alias in node.names)
            reads.append(read)
            defined += [(module, stmt.lineno, name, len(reads) - 1) for name in names
                        if name.startswith("_") and not name.endswith("__")]
    return [(module, line, name) for module, line, name, own in defined
            if not any(name in read for n, read in enumerate(reads) if n != own)]


def test_package_reads_every_private_name():
    assert unread_private_names({p.name: p.read_text() for p in PACKAGE}) == []


def test_guard_finds_unread_private_names():
    a = ("import b\n"
         "from c import _imported\n"
         "__version__ = '1'\n"
         "_READ, _unread = 1, 2\n"
         "_annotated: int = 3\n"
         "def _recursive(n):\n"
         "    return _recursive(n - 1) + _READ\n"
         "class _Kept:\n"
         "    pass\n"
         "def public():\n"
         "    return _Kept, b._attribute, _imported\n")
    b = "_attribute = 0\n_private_method_only = 1\nclass C:\n    def _private_method_only(self): pass\n"
    c = "_imported = 0\n"
    assert unread_private_names({"a": a, "b": b, "c": c}) == [
        ("a", 4, "_unread"), ("a", 5, "_annotated"), ("a", 6, "_recursive"),
        ("b", 2, "_private_method_only")]
