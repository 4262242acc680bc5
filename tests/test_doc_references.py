"""Every code reference in the prose docs names code that exists.

A backticked dotted name ``repro.…`` must resolve: the longest prefix
that imports as a module, then one ``getattr`` per remaining part
(a ``.*`` wildcard stops the walk).  A ``src/repro/…``, ``tests/…`` or
``examples/…`` path must exist.  Deleting or renaming code without its
docs fails here.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md"))]

_INLINE_CODE = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"(?<![\w./])repro(?:\.[A-Za-z_]\w*)+")
_PATH = re.compile(r"(?<![\w./-])(?:src/repro|tests|examples)/[\w./-]*")


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            target = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name is None or not module_name.startswith(exc.name):
                raise
            continue
        break
    for attr in parts[cut:]:
        if not hasattr(target, attr):
            return False
        target = getattr(target, attr)
    return True


def _broken_references(text: str):
    for span in _INLINE_CODE.findall(text):
        for dotted in _DOTTED.findall(span):
            if not _resolves(dotted):
                yield dotted
    for path in _PATH.findall(text):
        path = path.rstrip(".")              # a path ending a sentence
        if not (ROOT / path).exists():
            yield path


@pytest.mark.parametrize("doc", DOCS, ids=lambda path: path.name)
def test_code_references_resolve(doc):
    assert doc.exists()
    broken = sorted(set(_broken_references(doc.read_text(encoding="utf-8"))))
    assert not broken, f"{doc.name} names code that does not exist: {broken}"
