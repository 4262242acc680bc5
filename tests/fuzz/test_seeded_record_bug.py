"""A recovery record written too early is caught in and across processes.

Each controller writes its own recovery record, so a controller can
now get the *timing* of that write wrong.  The seeded bug writes the
record when the checkpoint is planned: ThyNVM's tables and shadow
paging's page map before the data they point at and the commit
record are durable, the journal's log record before the log stage is
(``seeded_child.py``).  In-process fuzz plans and a crashproc sweep
cell must both catch it on every system.
"""

import sys
from pathlib import Path

import pytest

from repro.core.controller import ThyNVMController
from repro.fuzz import crashproc
from repro.fuzz.crashproc import run_crashproc, sweep_plans
from repro.fuzz.plan import parse_plan
from repro.fuzz.runner import run_plan

from .seeded_child import seed_early_record

SEEDED_CHILD = Path(__file__).with_name("seeded_child.py")


@pytest.mark.parametrize("plan", [
    f"{system}/sparse:s1:e2:b12@{site}+0"
    for system, table in [("thynvm", "btt"), ("thynvm_block_only", "btt"),
                          ("thynvm_page_only", "ptt"), ("journal", "log"),
                          ("shadow", "pagemap")]
    for site in ["ckpt-start#1", f"table-persist.{table}#1",
                 "stage-done.0#1"]])
def test_early_record_fails_in_process(monkeypatch, plan):
    plan = parse_plan(plan)
    assert run_plan(plan).outcome == "pass"
    seed_early_record(plan.system, monkeypatch.setattr)
    result = run_plan(plan)
    assert result.outcome == "fail", result.to_dict()
    assert result.recovered_epoch == 0           # the uncommitted epoch


@pytest.mark.parametrize("system", ["thynvm", "thynvm_block_only",
                                    "thynvm_page_only", "journal",
                                    "shadow"])
def test_early_record_fails_a_crashproc_sweep_cell(monkeypatch, tmp_path,
                                                   system):
    monkeypatch.setattr(
        crashproc, "_child_argv", lambda plan, store_dir: [
            sys.executable, str(SEEDED_CHILD), str(plan), store_dir])
    cell = next(plan for plan in sweep_plans()
                if plan.system == system and plan.site == "ckpt-start")
    result = run_crashproc(cell, store_dir=str(tmp_path))
    assert result.outcome == "fail", result.to_dict()


def test_lost_commit_fails_even_when_the_image_is_intact(monkeypatch):
    """A controller that never writes its record recovers to epoch -1,
    whose image (all of epoch 0's writes sit in region A, home is still
    zero) matches the older golden exactly.  Accepting any committed
    epoch whose golden matches would pass it; the oracle must not."""
    monkeypatch.setattr(ThyNVMController, "_write_record",
                        lambda self: None)
    result = run_plan(parse_plan("thynvm/sparse:s1:e2:b12@commit#1+0"))
    assert result.outcome == "fail"
    assert result.detail == "recovered to epoch -1, expected 0"
