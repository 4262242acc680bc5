"""The shipped ``fuzz-corpus/`` archive and its provenance digest."""

import json
from pathlib import Path

from repro.fuzz.corpus import code_version, entry_name
from repro.fuzz.plan import parse_plan

SHIPPED_CORPUS = Path(__file__).resolve().parents[2] / "fuzz-corpus"


def test_shipped_entries_are_named_by_entry_name():
    """Each file's stem is the digest ``archive`` would give its plan,
    so re-archiving a shipped plan overwrites it instead of adding a
    duplicate entry."""
    paths = sorted(SHIPPED_CORPUS.glob("*.json"))
    assert paths
    for path in paths:
        entry = json.loads(path.read_text(encoding="utf-8"))
        assert path.stem == entry_name(parse_plan(entry["plan"]))


def test_code_version_is_stable_hex():
    version = code_version()
    assert version == code_version()
    int(version, 16)
    assert len(version) == 64
