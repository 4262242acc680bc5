"""Epoch-based journaling (logging) baseline (§5.1, following [3]).

A journal buffer in DRAM collects and coalesces updated blocks during
the execution phase; a table the size of ThyNVM's combined BTT+PTT
tracks the buffered blocks.  At the end of each epoch the system stops
the world and (1) writes every buffered block to a journal (log) region
in NVM, (2) commits the log, (3) writes the blocks again in place to
the Home Region, (4) commits the checkpoint.  The double write is the
classic redo-journaling overhead the paper charges this baseline with.

Functionally, a crash after the log commit but before the in-place
writes finish recovers by replaying the committed log over the home
image — real journaling semantics, verifiable in tests.  The log
commit is the controller's recovery record (a block -> log-slot map,
:mod:`repro.core.recovery`), written the moment the declared ``log``
stage is durable; the checkpoint commit replaces it with a record with
no log.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..config import SystemConfig
from ..core import probes
from ..core.checkpoint import Dest, Job
from ..core.recovery import MetaSnapshot, read_record
from ..core.regions import REGION_B
from ..mem.controller import DeviceKind, MemoryController
from ..sim.engine import Engine
from ..sim.request import Origin
from ..stats.collector import StatsCollector
from .base import StopTheWorldController

#: The checkpoint plan, in stage order: the CPU state, the buffered
#: blocks to the redo log, then the same blocks in place at home.  The
#: ``log`` stage's completion commits the log.
CHECKPOINT_PLAN = (
    ("cpu", Dest.BACKUP),
    ("log", Dest.LOG),
    ("home", Dest.HOME),
)


class JournalingController(StopTheWorldController):
    """Redo journaling with a DRAM journal buffer."""

    #: The declared plan the planners walk.
    PLAN = CHECKPOINT_PLAN

    def __init__(self, engine: Engine, config: SystemConfig,
                 memctrl: MemoryController, stats: StatsCollector) -> None:
        super().__init__(engine, config, memctrl, stats)
        self.buffer_capacity = config.btt_entries + config.ptt_entries
        self._buffer: Dict[int, int] = {}       # block -> buffer slot
        self._free_slots = list(range(self.buffer_capacity))
        self._free_slots.reverse()
        # Blocks captured by the current checkpoint's log, in slot order.
        self._log_plan: List[Tuple[int, int]] = []

    # --- buffer addressing ----------------------------------------------

    def _slot_addr(self, slot: int) -> int:
        """DRAM address of a journal buffer slot (temp area of the layout)."""
        return self.layout.temp_base + slot * self.config.block_bytes

    def _journal_nvm_addr(self, slot: int) -> int:
        """NVM address of the log entry for a buffer slot (region A)."""
        return self.layout.log_slot_addr(slot)

    # --- steering ------------------------------------------------------------

    def _read_location(self, block: int) -> Tuple[DeviceKind, int]:
        slot = self._buffer.get(block)
        if slot is not None:
            return DeviceKind.DRAM, self._slot_addr(slot)
        return DeviceKind.NVM, self.layout.home_block_addr(block)

    def _do_write(self, block: int, addr: int, origin: Origin,
                  data, callback, on_accept=None) -> None:
        slot = self._buffer.get(block)
        if slot is None:
            if not self._free_slots:
                self._handle_buffer_full(addr, origin, data, callback,
                                         on_accept, "overflow")
                return
            slot = self._free_slots.pop()
            self._buffer[block] = slot
            if len(self._free_slots) < self.buffer_capacity // 8:
                # High watermark: end the epoch early so the boundary
                # flush has headroom (avoids overflow mid-flush).
                self.epochs.request_end("overflow")
        self._issue_write(DeviceKind.DRAM, self._slot_addr(slot), origin,
                          data, callback, on_accept)

    def _dirty_pressure_threshold(self) -> int:
        return (7 * self.buffer_capacity) // 10

    # --- checkpointing -------------------------------------------------------------

    def _checkpoint_stages(self) -> List[List[Job]]:
        self._log_plan = sorted(self._buffer.items())
        stages = super()._checkpoint_stages()
        if self._log_plan:
            probes.notify("table-persist", "log")
        return stages

    def _stage_jobs(self, role: str, dest: Dest) -> List[Job]:
        # Both data stages copy every buffered block from its slot.
        origin = Origin.JOURNAL if dest is Dest.LOG else Origin.CHECKPOINT
        jobs: List[Job] = []
        for block, slot in self._log_plan:
            if dest is Dest.LOG:
                dst_addr = self._journal_nvm_addr(slot)
            else:
                # Until the log commits, every committed copy is at home.
                dst_addr = self.layout.region_block_addr(
                    dest.region(REGION_B), block)
            jobs.append(Job(dst_kind=DeviceKind.NVM, dst_addr=dst_addr,
                            origin=origin, src_kind=DeviceKind.DRAM,
                            src_addr=self._slot_addr(slot)))
        return jobs

    def _on_ckpt_stage(self, stage_index: int, role: str) -> None:
        # Once the log is durable, a crash can recover this epoch by
        # replaying it (epoch and aux runs alike).
        if role == "log":
            self._capture_log()

    def _capture_log(self) -> None:
        # The log is durable: commit it by recording where it lives.
        self._write_record(MetaSnapshot(epoch=self.epochs.active_epoch,
                                        log_slots=dict(self._log_plan)))

    def _commit_actions(self) -> None:
        # In-place writes are durable: home now holds the full state and
        # the log is superseded.
        self._write_record(MetaSnapshot(epoch=self.epochs.active_epoch))
        self._buffer.clear()
        self._free_slots = list(range(self.buffer_capacity))
        self._free_slots.reverse()
        self._log_plan = []

    # --- functional recovery ---------------------------------------------------------

    def recovery_cycles_estimate(self) -> int:
        """§2.2: log replay makes journaling recovery slow — it rewrites
        every block of the durable log in place before the system can
        run.  The log length comes from the recovery record."""
        config = self.config
        per_write = ((config.nvm.row_miss_dirty + config.nvm.burst)
                     // config.num_banks)
        per_read = ((config.nvm.row_miss_clean + config.nvm.burst)
                    // config.num_banks)
        record = read_record(self.memctrl.functional_store(DeviceKind.NVM))
        # Read each log entry, write it home.
        return len(record.log_slots) * (per_read + per_write)
