"""A crashproc child with an early-record bug seeded into its system.

A recovery record may only be written once everything it points at is
durable.  :func:`seed_early_record` writes it when the checkpoint is
planned instead: ThyNVM's flipped tables and shadow paging's flipped
page map before the data they point at and the commit record, the
journal's log record before the log stage is durable.  A crash in
between recovers from data that is not there yet.  Run as a script it
seeds the bug for the plan's system, then runs the ordinary crashproc
child, so the bug lives only in that process::

    python tests/fuzz/seeded_child.py PLAN STORE_DIR
"""

import sys

from repro.baselines.journaling import JournalingController
from repro.baselines.shadow import ShadowPagingController
from repro.core.controller import ThyNVMController
from repro.core.recovery import MetaSnapshot, write_record
from repro.core.regions import other_region
from repro.fuzz.crashproc import run_child
from repro.fuzz.plan import parse_plan
from repro.mem.controller import DeviceKind


def _record_planned_tables(ctl, epoch):
    """The record ThyNVM's commit of ``epoch`` will write (its version
    flips applied), written now."""
    meta = ctl._snapshot(epoch)
    for entry in ctl._plan_temp_entries + ctl._plan_pending_entries:
        if entry.coop_page is None:
            meta.block_regions[entry.block] = other_region(
                entry.stable_region)
    for pe in ctl._plan_pages:
        meta.page_regions[pe.page] = (other_region(pe.stable_region),
                                      pe.dram_slot)
    write_record(ctl.memctrl.functional_store(DeviceKind.NVM), meta)


def _record_planned_page_map(ctl):
    planned = dict(ctl._page_region)
    planned.update((page, dst) for page, _slot, dst in ctl._flush_plan)
    ctl._write_record(MetaSnapshot(
        epoch=ctl.epochs.active_epoch,
        page_regions={page: (region, 0) for page, region in planned.items()}))


def seed_early_record(system, patch=setattr):
    """Write ``system``'s record when its checkpoint is planned (the bug).

    ``patch`` is ``setattr`` or pytest's ``monkeypatch.setattr``."""
    if system.startswith("thynvm"):
        cls, planner, record = (ThyNVMController, "_plan_checkpoint",
                                _record_planned_tables)
    elif system == "shadow":
        cls, planner, record = (ShadowPagingController, "_checkpoint_stages",
                                _record_planned_page_map)
    elif system == "journal":
        cls, planner, record = (JournalingController, "_checkpoint_stages",
                                JournalingController._capture_log)
        patch(cls, "_on_ckpt_stage", lambda self, stage_index, role: None)
    else:
        raise ValueError(f"no early-record bug for {system!r}")
    plan = getattr(cls, planner)

    def plan_and_record(self, *args):
        stages = plan(self, *args)
        record(self, *args)
        return stages

    patch(cls, planner, plan_and_record)


if __name__ == "__main__":
    crash_plan = parse_plan(sys.argv[1])
    seed_early_record(crash_plan.system)
    sys.exit(run_child(crash_plan, sys.argv[2]))
