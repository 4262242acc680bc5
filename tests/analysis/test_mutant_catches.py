"""Each kept static check's unique catch, pinned.

The catch matrix (docs/ANALYSIS.md, ``tests/mutants/run.py``) keeps a
static check only for a seeded defect that no runtime detector in CI
catches.  One is left: the host-clock scan (``det-wallclock``) and the
``engine-host-deadline`` mutant.  The case applies that defect's patch
from ``tests/mutants/`` to a copy of the package and asserts the check
flags the patched module and stays quiet on the shipped source.
"""

import shutil
from pathlib import Path

import pytest

import repro

from ..mutants.catalogue import MUTANTS, apply
from .test_determinism_rules import host_clock_reads

SRC = Path(repro.__file__).parent
BY_NAME = {mutant.name: mutant for mutant in MUTANTS}


@pytest.mark.parametrize("rule, name",
                         [("det-wallclock", "engine-host-deadline")])
def test_kept_rule_catches_its_defect(tmp_path, rule, name):
    mutant = BY_NAME[name]
    assert host_clock_reads(SRC) == {}
    root = tmp_path / "src"
    shutil.copytree(SRC, root / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    apply(mutant, root)
    assert list(host_clock_reads(root / "repro")) == [mutant.file], \
        f"{rule} missed {name}"
