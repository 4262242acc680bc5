"""A seeded checkpoint-plan declaration, caught end to end.

The seed edits ThyNVM's declared ``CHECKPOINT_PLAN`` so that its
``page`` stage writes the committed region instead of its complement.
The planner walks the literal and ``repro verify`` reads it, so one
edit reaches both: the model checker must report a
``verify-committed-overwrite`` counterexample, and its compiled plan
must fail against a runtime carrying the same declaration and pass
against the shipped one.  A plan verify cannot read is a finding.
"""

import shutil
from pathlib import Path

import pytest

from repro.analysis.verify import (PROTOCOL_FILES, build_exploration,
                                   extract_facts, plan_string, run_verify)
from repro.analysis.verify.extract import default_root

CLEAN = '("page", Dest.COMPLEMENT),'
BUGGY = '("page", Dest.COMMITTED),'


def seeded_root(tmp_path: Path, clean: str = CLEAN,
                buggy: str = BUGGY) -> Path:
    """Copy the protocol sources and plant ``buggy`` for ``clean`` in
    ThyNVM's declared plan."""
    root = tmp_path / "src"
    for rel in PROTOCOL_FILES:
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(default_root() / rel, target)
    controller = root / "core" / "controller.py"
    source = controller.read_text()
    assert source.count(clean) == 1, "seed anchor moved; update this test"
    controller.write_text(source.replace(clean, buggy))
    return root


@pytest.fixture(scope="module")
def seeded_exploration(tmp_path_factory):
    root = seeded_root(tmp_path_factory.mktemp("seeded-plan"))
    return build_exploration("thynvm", extract_facts(root))


def test_counterexample_found_and_compiled(seeded_exploration):
    overwrites = [ce for ce in seeded_exploration.counterexamples
                  if ce.check == "verify-committed-overwrite"]
    assert overwrites
    ce = overwrites[0]
    assert ce.workload == "hotpage"
    assert ce.anchor[0] == "core/controller.py"
    # The page stage (index 2) of the first checkpoint after promotion
    # overwrites the committed block copies it was meant to avoid.
    assert plan_string(ce) == "thynvm/hotpage:s1:e2:b16@stage-done.2#2+0"


def test_compiled_plan_fails_only_with_the_seeded_declaration(
        seeded_exploration, monkeypatch):
    from repro.core.checkpoint import Dest
    from repro.core.controller import ThyNVMController
    from repro.fuzz.plan import parse_plan
    from repro.fuzz.runner import run_plan

    ce = next(ce for ce in seeded_exploration.counterexamples
              if ce.check == "verify-committed-overwrite")
    plan = parse_plan(plan_string(ce))

    clean = run_plan(plan)
    assert clean.outcome == "pass", clean.detail

    monkeypatch.setattr(ThyNVMController, "PLAN", tuple(
        (role, Dest.COMMITTED if role == "page" else dest)
        for role, dest in ThyNVMController.PLAN))
    buggy = run_plan(plan)
    assert buggy.outcome == "fail"
    assert "mismatch after recovery" in (buggy.detail or "")


@pytest.mark.parametrize("buggy", [
    '("page", Dest.ELSEWHERE),',       # not a Dest member
    '("pages", Dest.COMPLEMENT),',     # a role no machine models
    '("page", Dest.BACKUP),',          # a data stage at the Backup Region
])
def test_unreadable_plan_is_an_extraction_finding(tmp_path, buggy):
    root = seeded_root(tmp_path, buggy=buggy)
    facts = extract_facts(root)
    assert "thynvm" not in facts.plans
    assert [w.path for w in facts.warnings] == ["core/controller.py"]
    report = run_verify(root=root)
    assert [f.rule for f in report.findings] == ["verify-model-extraction"]
    assert report.exit_code() == 0
    assert report.exit_code(strict=True) == 1
    assert report.systems["thynvm"]["traces"] == 0
