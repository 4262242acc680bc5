"""End-to-end counterexample pipeline on a seeded protocol bug.

The PR-2 near-miss: promoting a hot page while placing its DRAM
writeback into a *fixed* region instead of deriving it from where the
page's committed block copies live.  The model checker must find it,
compile a concrete crash plan, and the dynamic replayer must confirm
the plan fails against a runtime carrying the same bug.
"""

import shutil
from pathlib import Path

import pytest

from repro.analysis.verify import (PROTOCOL_FILES, build_exploration,
                                   extract_facts, plan_string, run_verify)
from repro.analysis.verify.extract import default_root

BUGGY = "stable = REGION_B"
CLEAN = "stable = self._promotion_region(page)"


def seeded_root(tmp_path: Path) -> Path:
    """Copy the protocol sources and plant the fixed-region bug."""
    root = tmp_path / "src"
    for rel in PROTOCOL_FILES:
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(default_root() / rel, target)
    controller = root / "core" / "controller.py"
    source = controller.read_text()
    assert CLEAN in source, "seed anchor moved; update this test"
    controller.write_text(source.replace(CLEAN, BUGGY))
    return root


@pytest.fixture(scope="module")
def bug_exploration(tmp_path_factory):
    root = seeded_root(tmp_path_factory.mktemp("seeded"))
    facts = extract_facts(root)
    return facts, build_exploration("thynvm", facts)


def test_extraction_sees_the_constant_policy(bug_exploration):
    facts, _ = bug_exploration
    assert facts.promotion is not None
    assert facts.promotion.kind == "constant:B"


def test_counterexample_found_and_compiled(bug_exploration):
    _, exploration = bug_exploration
    assert exploration.counterexamples != []
    ce = exploration.counterexamples[0]
    assert ce.check == "verify-committed-overwrite"
    assert ce.workload == "hotpage"
    plan = plan_string(ce)
    # The writeback stage (index 2) of the first checkpoint after the
    # promotion overwrites the committed block copies.
    assert plan == "thynvm/hotpage:s1:e2:b16@stage-done.2#2+0"


def test_run_verify_reports_replayable_finding(tmp_path):
    root = seeded_root(tmp_path)
    report = run_verify(root=root)
    assert report.exit_code() == 1
    messages = [f.message for f in report.findings
                if f.rule == "verify-committed-overwrite"]
    assert messages
    assert any("repro fuzz replay 'thynvm/hotpage:" in message
               for message in messages)
    # The anchor points into the (copied) protocol source.
    anchored = [f for f in report.findings
                if f.rule == "verify-committed-overwrite"]
    assert all(f.path.endswith("core/controller.py") for f in anchored)
    assert all(f.line > 1 for f in anchored)


def test_compiled_plan_fails_only_on_the_buggy_runtime(bug_exploration,
                                                       monkeypatch):
    from repro.core.controller import ThyNVMController
    from repro.core.regions import REGION_B
    from repro.fuzz.plan import parse_plan
    from repro.fuzz.runner import run_plan

    _, exploration = bug_exploration
    plan = parse_plan(plan_string(exploration.counterexamples[0]))

    clean = run_plan(plan)
    assert clean.outcome == "pass", clean.detail

    monkeypatch.setattr(ThyNVMController, "_promotion_region",
                        lambda self, page: REGION_B)
    buggy = run_plan(plan)
    assert buggy.outcome == "fail"
    assert "mismatch after recovery" in (buggy.detail or "")
