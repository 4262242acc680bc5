"""A seeded checkpoint-plan declaration, caught end to end.

The seed edits ThyNVM's declared ``CHECKPOINT_PLAN`` so that its
``page`` stage writes the committed region instead of its complement.
The planner walks the declaration, so ThyNVM's quick crash-plan space
on the ``hotpage`` workload must fail on it, and the plan that crashes
after the page stage of the second checkpoint must fail against a
runtime carrying the same declaration and pass against the shipped
one.  A declared stage the planner cannot aim stops the run at the
first checkpoint that plans it.
"""

import pytest

from repro.core.checkpoint import Dest
from repro.core.controller import ThyNVMController
from repro.errors import ReproError
from repro.fuzz.plan import parse_plan
from repro.fuzz.runner import run_plan

from .exploration import explore

PLAN = "thynvm/hotpage:s1:e2:b16@stage-done.2#2+0"


def declare(monkeypatch, role, dest):
    """Replace the ``page`` entry of ThyNVM's declared plan."""
    monkeypatch.setattr(ThyNVMController, "PLAN", tuple(
        (role, dest) if old_role == "page" else (old_role, old_dest)
        for old_role, old_dest in ThyNVMController.PLAN))


def test_counterexample_found_and_compiled(monkeypatch):
    declare(monkeypatch, "page", Dest.COMMITTED)
    failures = {result.plan: result.detail
                for result in explore("thynvm", ("hotpage",))
                if result.failed}
    assert PLAN in failures
    replay = run_plan(parse_plan(PLAN))
    assert replay.detail == failures[PLAN]


def test_compiled_plan_fails_only_with_the_seeded_declaration(monkeypatch):
    plan = parse_plan(PLAN)

    clean = run_plan(plan)
    assert clean.outcome == "pass", clean.detail

    declare(monkeypatch, "page", Dest.COMMITTED)
    buggy = run_plan(plan)
    assert buggy.outcome == "fail"
    assert "mismatch after recovery" in (buggy.detail or "")


@pytest.mark.parametrize("role, dest, message", [
    # A data stage at the Backup Region.
    pytest.param("page", Dest.BACKUP, "BACKUP names no checkpoint region",
                 id='("page", Dest.BACKUP)'),
    # A role no planner knows.
    pytest.param("pages", Dest.COMPLEMENT,
                 "no planner for checkpoint stage 'pages'",
                 id='("pages", Dest.COMPLEMENT)'),
])
def test_unreadable_plan_is_an_extraction_finding(monkeypatch, role, dest,
                                                  message):
    declare(monkeypatch, role, dest)
    # A plan whose crash never fires: the drive runs every checkpoint.
    plan = parse_plan("thynvm/hotpage:s1:e2:b16@commit#99+0")
    with pytest.raises(ReproError, match=message):
        run_plan(plan)
