"""A seeded protocol bug, found by crash plans and replayed.

The seed promotes a hot page while placing its DRAM writeback into a
*fixed* region (``REGION_B``) instead of deriving it from where the
page's committed block copies live, so the writeback can overwrite the
committed copies.  ThyNVM's quick crash-plan space on the ``hotpage``
workload must find it, and its plan string must replay: the plan that
crashes after the writeback stage of the second checkpoint fails
against a runtime carrying the bug and passes against the shipped one.
"""

from repro.core.controller import ThyNVMController
from repro.core.regions import REGION_B
from repro.fuzz.plan import parse_plan
from repro.fuzz.runner import run_plan

from .exploration import explore

PLAN = "thynvm/hotpage:s1:e2:b16@stage-done.2#2+0"


def plant_fixed_region(monkeypatch):
    monkeypatch.setattr(ThyNVMController, "_promotion_region",
                        lambda self, page: REGION_B)


def test_counterexample_found_and_compiled(monkeypatch):
    plant_fixed_region(monkeypatch)
    failures = {result.plan: result.detail
                for result in explore("thynvm", ("hotpage",))
                if result.failed}
    assert PLAN in failures
    # Each counterexample is a plan string that replays to its failure.
    for plan, detail in failures.items():
        replay = run_plan(parse_plan(plan))
        assert (replay.plan, replay.detail) == (plan, detail)


def test_compiled_plan_fails_only_on_the_buggy_runtime(monkeypatch):
    plan = parse_plan(PLAN)

    clean = run_plan(plan)
    assert clean.outcome == "pass", clean.detail

    plant_fixed_region(monkeypatch)
    buggy = run_plan(plan)
    assert buggy.outcome == "fail"
    assert "mismatch after recovery" in (buggy.detail or "")
