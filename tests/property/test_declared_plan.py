"""Every checkpoint write lands where its declared stage says it should.

Each system declares its checkpoint plan once, as the ``CHECKPOINT_PLAN``
literal its planner walks and ``repro verify`` reads; the verifier
models the declaration, not the planner's code.  This check keeps the
two equal at runtime at no cost to the simulator: whenever a checkpoint
run issues a job, every block the job writes must land where its
stage's ``Dest`` rule, applied to the durable recovery record at that
moment, says — and never on a copy that record references.  For every
stage but the journal's ``home`` stage that record is the one durable
when the checkpoint was planned; the home stage starts after its
``log`` stage made the redo log the record.

The drives are every fuzz system on both fuzz workloads, plus one
direct-driven ThyNVM run that writes remapped blocks and a promoted
page while a checkpoint is in flight: the fuzz drive writes only
between commits, so nothing else fills the ``temp`` stage.
"""

from collections import Counter
from typing import List, Optional

import pytest

from repro.analysis.verify import VERIFY_SYSTEMS, VERIFY_WORKLOADS
from repro.baselines import journaling, shadow
from repro.core import controller
from repro.core.checkpoint import CheckpointRun, Dest, Job
from repro.core.recovery import MetaSnapshot, block_address, read_record
from repro.core.regions import REGION_A, REGION_B
from repro.fuzz.runner import census
from repro.mem.controller import DeviceKind

from ..conftest import end_epoch, make_direct, settle, write_block

PLANS = (controller.CHECKPOINT_PLAN, journaling.CHECKPOINT_PLAN,
         shadow.CHECKPOINT_PLAN)


class PlanAudit:
    """Checks each job a checkpoint run issues against its declaration."""

    def __init__(self) -> None:
        self.checked: Counter = Counter()      # role -> blocks checked
        self.violations: List[str] = []

    def install(self, monkeypatch) -> "PlanAudit":
        issue, make_bulk = CheckpointRun._issue, CheckpointRun._make_bulk

        def audited_issue(run, job):
            self.audit(run, job)
            return issue(run, job)

        def audited_make_bulk(run, job):
            self.audit(run, job)
            return make_bulk(run, job)

        monkeypatch.setattr(CheckpointRun, "_issue", audited_issue)
        monkeypatch.setattr(CheckpointRun, "_make_bulk", audited_make_bulk)
        return self

    def audit(self, run: CheckpointRun, job: Job) -> None:
        ctl = run.on_commit.__self__
        role = run.roles[run._stage_index]
        dest = dict(ctl.PLAN)[role]
        record = read_record(ctl.memctrl.functional_store(DeviceKind.NVM))
        for index in range(job.count):
            problem = self.misplaced(ctl, dest, job.dst_addr
                                     + index * job.stride, record)
            if problem:
                self.violations.append(
                    f"{type(ctl).__name__} stage {role!r} ({dest.name}): "
                    f"{problem}")
            self.checked[role] += 1

    @staticmethod
    def misplaced(ctl, dest: Dest, dst: int,
                  record: MetaSnapshot) -> Optional[str]:
        layout = ctl.layout
        if dest is Dest.BACKUP:
            if layout.backup_base <= dst < layout.commit_record_addr:
                return None
            return f"{dst:#x} is outside the Backup Region"
        if dst >= layout.backup_base:
            return f"data write {dst:#x} in the Backup Region"
        if dest is Dest.LOG:
            logs = {layout.log_slot_addr(slot)
                    for slot in record.log_slots.values()}
            if dst in logs:
                return f"{dst:#x} overwrites the redo log the record names"
            if dst < layout.region_a_base:
                return f"{dst:#x} is outside the log area"
            return None
        region = REGION_A if dst >= layout.region_a_base else REGION_B
        block = ((dst - layout.region_block_addr(region, 0))
                 // layout.block_bytes)
        referenced = block_address(record, layout, ctl.addresses, block)
        if dst == referenced:
            return (f"block {block} overwrites the copy the durable "
                    f"record references ({dst:#x})")
        committed = (REGION_A if layout.region_a_base <= referenced
                     < layout.backup_base else REGION_B)
        expected = layout.region_block_addr(dest.region(committed), block)
        if dst != expected:
            return (f"block {block} lands at {dst:#x}; its rule, applied "
                    f"to the record, names {expected:#x}")
        return None


def drive_in_flight_writes(audit: PlanAudit) -> None:
    """ThyNVM with remapped blocks and a promoted page written while
    their own checkpoint is in flight (temp stage and cooperation)."""
    system = make_direct()
    cfg = system.config
    hot = 2 * cfg.blocks_per_page
    for offset in range(cfg.blocks_per_page):      # promote page 2
        write_block(system, hot + offset, b"h" + bytes([offset]))
    settle(system.engine)
    end_epoch(system)
    assert 2 in system.ctl.ptt
    for epoch in range(1, 4):
        for block in range(4):
            write_block(system, block, b"b%d" % epoch)
        write_block(system, hot + 1, b"p%d" % epoch)
        settle(system.engine, 2_000)
        end_epoch(system, wait_commit=False)
        # Their own copies are in the checkpoint: these detour to DRAM
        # temp slots (blocks) and the BTT (the mid-checkpoint page).
        for block in range(4):
            write_block(system, block, b"t%d" % epoch)
        write_block(system, hot + 3, b"c%d" % epoch)
        settle(system.engine, 2_000)
    end_epoch(system)
    system.ctl.validate()


def test_controllers_walk_their_module_literal():
    assert controller.ThyNVMController.PLAN is controller.CHECKPOINT_PLAN
    assert (journaling.JournalingController.PLAN
            is journaling.CHECKPOINT_PLAN)
    assert shadow.ShadowPagingController.PLAN is shadow.CHECKPOINT_PLAN


def test_every_checkpoint_write_lands_where_declared(monkeypatch):
    audit = PlanAudit().install(monkeypatch)
    for system in VERIFY_SYSTEMS:
        for workload in VERIFY_WORKLOADS:
            census(system, workload, seed=1, epochs=3, blocks=16)
    fuzz_roles = set(audit.checked)
    drive_in_flight_writes(audit)
    assert audit.violations == []
    # Only the direct drive fills the temp stage; together the drives
    # write through every declared stage of every plan.
    assert "temp" not in fuzz_roles and audit.checked["temp"] > 0
    assert set(audit.checked) == {role for plan in PLANS
                                  for role, _dest in plan}


class _RegionA:
    """A stand-in rule that ignores the committed record."""

    @staticmethod
    def region(committed: int) -> int:
        return REGION_A


def _hard_coded_page_region(monkeypatch):
    page_jobs = controller.ThyNVMController._page_writeback_jobs
    monkeypatch.setattr(controller.ThyNVMController, "_page_writeback_jobs",
                        lambda self, pages, dest: page_jobs(self, pages,
                                                            _RegionA))


def _no_log_commit(monkeypatch):
    monkeypatch.setattr(journaling.JournalingController, "_on_ckpt_stage",
                        lambda self, stage_index, role: None)


@pytest.mark.parametrize("system, seed, stage", [
    ("thynvm", _hard_coded_page_region, "'page'"),
    ("journal", _no_log_commit, "'home'"),
])
def test_planner_drifting_from_its_declaration_fails(monkeypatch, system,
                                                     seed, stage):
    audit = PlanAudit().install(monkeypatch)
    census(system, "hotpage", seed=1, epochs=3, blocks=16)
    assert audit.violations == []
    seed(monkeypatch)
    census(system, "hotpage", seed=1, epochs=3, blocks=16)
    assert audit.violations
    assert all(f"stage {stage}" in v and "durable record references" in v
               for v in audit.violations)
