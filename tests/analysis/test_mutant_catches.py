"""Each kept rule's unique catch, pinned.

The catch matrix (docs/ANALYSIS.md, ``tests/mutants/run.py``) keeps a
lint rule for a seeded defect that no runtime detector in CI catches.
Each case applies that defect's patch from ``tests/mutants/`` to a
copy of the module and asserts the rule fires on the copy and stays
quiet on the shipped source.
"""

import shutil
from pathlib import Path

import pytest

import repro
from repro.analysis import LintConfig, run_analysis

from ..mutants.catalogue import MUTANTS, apply

SRC = Path(repro.__file__).parent
BY_NAME = {mutant.name: mutant for mutant in MUTANTS}

UNIQUE_CATCHES = {
    "det-wallclock": "engine-host-deadline",
}


def fired(path: Path, rule: str):
    report = run_analysis([path], LintConfig(select=(rule,)))
    return [finding.rule for finding in report.findings]


@pytest.mark.parametrize("rule, name", sorted(UNIQUE_CATCHES.items()))
def test_kept_rule_catches_its_defect(tmp_path, rule, name):
    mutant = BY_NAME[name]
    assert rule in mutant.aimed_at and mutant.exposed_by
    assert fired(SRC / mutant.file, rule) == []
    root = tmp_path / "src"
    shutil.copytree(SRC, root / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    apply(mutant, root)
    assert rule in fired(root / "repro" / mutant.file, rule)
