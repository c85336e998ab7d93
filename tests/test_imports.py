"""No module of the package imports a name it never uses, no private
module-level name goes unread, and no public function or class goes unnamed
by the package, the tests and the benchmark.

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


def _names_read(tree) -> set:
    """Every name the tree loads, reads as an attribute or imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


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
            reads.append(_names_read(stmt))
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


ROOT = Path(__file__).resolve().parents[1]
READERS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
# public names that something outside Python names: the console script
ENTRY_POINTS = {("cli.py", "main")}


def unnamed_public_names(package: dict, readers: dict) -> list:
    """(module, line, name) of every public top-level function or class of
    `package` ({module: source}) that nothing names but its own definition:
    no other top-level statement of the package and no source of `readers`
    ({name: source}), matched by name alone."""
    outside = set().union(*(_names_read(ast.parse(s)) for s in readers.values()))
    stmts = [(module, stmt) for module, source in package.items()
             for stmt in ast.parse(source).body]
    reads = [_names_read(stmt) for _, stmt in stmts]
    return [(module, stmt.lineno, stmt.name) for n, (module, stmt) in enumerate(stmts)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_") and stmt.name not in outside
            and not any(stmt.name in read for m, read in enumerate(reads) if m != n)]


def test_every_public_name_is_named_elsewhere():
    found = unnamed_public_names({p.name: p.read_text() for p in PACKAGE},
                                 {str(p): p.read_text() for p in READERS})
    assert [(m, name) for m, _, name in found if (m, name) not in ENTRY_POINTS] == []


def test_guard_finds_unnamed_public_names():
    a = ("import b\n"
         "def used_by_b(): pass\n"
         "def used_by_a_reader(): pass\n"
         "def used_in_a(): pass\n"
         "def planted(): return planted()\n"
         "class Planted:\n"
         "    def planted_method(self): return Planted\n"
         "def public(): return used_in_a()\n")
    b = "from a import used_by_b\nclass B: pass\n"
    reader = "import a\na.used_by_a_reader()\nb.B\na.public\n"
    assert unnamed_public_names({"a": a, "b": b}, {"test_x": reader}) == [
        ("a", 5, "planted"), ("a", 6, "Planted")]
