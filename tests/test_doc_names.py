"""Every dotted name the docs put in backticks, such as `protocol.block_memo`,
names an attribute of the package that exists.

README.md and the package's docstrings and comments point at code by such
names; a name the code no longer has is a doc that drifted.  A name is one
of the package's modules, optionally prefixed `mupir.`, followed by one or
more attributes, and each attribute is looked up on the one before it.
"""
import importlib
import re
from pathlib import Path

import pytest

import mupir

ROOT = Path(mupir.__file__).resolve().parent
SOURCES = [ROOT.parents[1] / "README.md"] + sorted(ROOT.glob("*.py"))
MODULES = ("core", "protocol", "audit", "gf2", "harness", "params", "single_user", "cli",
           "errors")
SPAN = re.compile(r"`([^`]+)`")
NAME = re.compile(rf"(?<![\w.])(?:mupir\.)?({'|'.join(MODULES)})((?:\.[A-Za-z_]\w*)+)")


def dotted_names(text: str) -> list:
    """(module, attribute path) of every dotted name in the text's
    backticked spans, in order."""
    return [(m.group(1), m.group(2)[1:]) for span in SPAN.findall(text)
            for m in NAME.finditer(span)]


def missing(module: str, path: str) -> bool:
    obj = importlib.import_module(f"mupir.{module}")
    for attr in path.split("."):
        if not hasattr(obj, attr):
            return True
        obj = getattr(obj, attr)
    return False


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_backticked_name_exists(path):
    names = dotted_names(path.read_text())
    assert [f"{m}.{a}" for m, a in names if missing(m, a)] == []


def test_the_guard_reads_dotted_names():
    text = ("see `core.atom(f, j, x, K, sub)`, `mupir.protocol._Layout.order`, "
            "`tests/test_audit.py::X`, `mupir.core` and `info.partners`")
    names = dotted_names(text)
    assert names == [("core", "atom"), ("protocol", "_Layout.order")]
    assert not missing("protocol", "_Layout.order")
    assert missing("protocol", "no_such_name") and missing("core", "atom.nothing")
