"""Every seeded mutant still applies to the shipped tree.

A refactor that moves or duplicates a mutant's anchor fails here on
the next push, not at the next catch-matrix run (tests/mutants/run.py).
"""

from pathlib import Path

import pytest

import repro

from .catalogue import MUTANTS

SRC = Path(repro.__file__).parent


def test_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_anchor_applies_exactly_once(mutant):
    source = (SRC / mutant.file).read_text()
    assert source.count(mutant.anchor) == 1, (
        f"{mutant.name}: anchor moved in {mutant.file}; update "
        f"tests/mutants/catalogue.py")
    patched = source.replace(mutant.anchor, mutant.replacement)
    assert patched != source
    compile(patched, mutant.file, "exec")
