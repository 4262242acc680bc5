"""Shared machinery for the stop-the-world baselines (§5.1).

Journaling and shadow paging both follow the Figure 3(a) epoch model:
execution, then a checkpointing phase during which the CPU stays
stalled.  The epoch lifecycle itself (timer, persist barriers, drain,
crash) is :class:`~repro.core.lifecycle.EpochController`'s; this class
adds the stop-the-world boundary sequence (stall → cache flush →
the declared checkpoint stages → commit → resume) and the buffer-full
valve.  Subclasses declare their plan (a ``CHECKPOINT_PLAN`` literal of
``(role, Dest)`` pairs whose ``cpu`` stage this class writes) and
provide the write steering, each data stage's jobs and the commit-time
metadata flip, which writes their recovery record
(:mod:`repro.core.recovery`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core import probes
from ..core.checkpoint import CheckpointRun, Dest, Job
from ..core.lifecycle import EpochController
from ..core.recovery import MetaSnapshot, write_record
from ..errors import CrashedError
from ..mem.controller import DeviceKind
from ..sim.request import Origin


class StopTheWorldController(EpochController):
    """Epoch-based consistency with a blocking checkpointing phase."""

    #: The subclass's declared ``CHECKPOINT_PLAN``, in stage order.
    PLAN: Sequence[Tuple[str, Dest]] = ()

    @property
    def committed_epoch(self) -> int:
        # The next epoch starts executing only at the commit.
        return self.epochs.active_epoch - 1

    # --- MemoryPort (subclasses implement the steering) ---------------------------

    def write_block(self, addr: int, origin: Origin,
                    data: Optional[bytes] = None, callback=None,
                    on_accept=None) -> None:
        if self._crashed:
            raise CrashedError("write_block on a crashed controller")
        if self._ckpt_run is not None or self._aux_run is not None:
            # Stop-the-world semantics: with a CPU attached no demand
            # write can arrive mid-checkpoint (the core is stalled), but
            # direct-driven uses can race the run.  Defer until commit
            # so in-flight checkpoint copies never see torn buffers.
            self._park_write(addr, origin, data, callback, on_accept)
            return
        block = self.addresses.block_index(addr)
        self._do_write(block, addr, origin, data, callback, on_accept)

    def _do_write(self, block: int, addr: int, origin: Origin,
                  data, callback, on_accept=None) -> None:
        raise NotImplementedError

    def _aux_plan(self) -> List[Tuple[str, Dest]]:
        """The declared plan without its CPU-state stage: what a
        sub-epoch (aux) checkpoint, which has no CPU boundary, writes."""
        return [(role, dest) for role, dest in self.PLAN if role != "cpu"]

    def _checkpoint_stages(self) -> List[List[Job]]:
        """Jobs of every declared stage but the CPU state's."""
        return [self._stage_jobs(role, dest)
                for role, dest in self._aux_plan()]

    def _stage_jobs(self, role: str, dest: Dest) -> List[Job]:
        """Jobs of declared data stage ``role``, aimed by ``dest``."""
        raise NotImplementedError

    def _commit_actions(self) -> None:
        """Flip the committed metadata and write its recovery record."""
        raise NotImplementedError

    def _write_record(self, meta: MetaSnapshot) -> None:
        """Persist this system's recovery record in the NVM meta slot."""
        write_record(self.memctrl.functional_store(DeviceKind.NVM), meta)

    def _handle_buffer_full(self, addr: int, origin: Origin, data,
                            callback, on_accept, reason: str) -> None:
        """Park a write that found the DRAM buffer full; it is replayed
        after the checkpoint that empties the buffer."""
        self._park_write(addr, origin, data, callback, on_accept)
        if self.epochs.checkpoint_in_flight and self._aux_run is None:
            # Mid-cache-flush overflow: flush the buffer without a CPU
            # boundary to avoid deadlock.
            self._run_aux_checkpoint()
        else:
            self.epochs.request_end(reason)

    # --- epoch boundary (stop-the-world) ---------------------------------------------

    def _on_epoch_end(self, reason: str) -> None:
        if self._crashed:
            return
        if reason == "overflow":
            self.stats.epochs_forced_by_overflow += 1
        if self.core is not None and not self.core.finished:
            self.core.stall_at_next_boundary("flush", self._begin_boundary)
        else:
            self._begin_boundary()

    def _begin_boundary(self) -> None:
        if self._crashed:
            return
        if self.hierarchy is not None:
            self.hierarchy.flush_dirty(Origin.FLUSH,
                                       lambda _n: self._boundary_done())
        else:
            self._boundary_done()

    def _boundary_done(self) -> None:
        if self._crashed:
            return
        if self.core is not None and self.core.stalled:
            # Flush finished; the rest of the stall is checkpoint time.
            self.core.change_stall_reason("checkpoint")
        roles = [role for role, _dest in self.PLAN]
        stages = self._checkpoint_stages()
        stages.insert(roles.index("cpu"), self._cpu_state_jobs())
        self._ckpt_run = CheckpointRun(
            self.engine, self.memctrl, stages,
            self.layout.commit_record_addr, self._committed,
            on_stage=self._on_ckpt_stage, roles=roles)
        self._ckpt_run.start()

    def _on_ckpt_stage(self, stage_index: int, role: str) -> None:
        """Hook: declared stage ``role`` (index ``stage_index``) of an
        epoch or aux checkpoint is durable."""

    def _cpu_state_jobs(self) -> List[Job]:
        nblocks = -(-self.config.cpu_state_bytes // self.config.block_bytes)
        return [
            Job(dst_kind=DeviceKind.NVM,
                dst_addr=self.layout.backup_addr(i * self.config.block_bytes),
                origin=Origin.CHECKPOINT)
            for i in range(nblocks)
        ]

    def _committed(self) -> None:
        if self._crashed:
            return
        self._account_commit()
        self._commit_actions()
        # Stop the world: the next epoch's execution starts only now.
        self.epochs.execution_phase_done()
        self.epochs.checkpoint_committed()
        if self.core is not None and self.core.stalled:
            self.core.resume()
        self._replay_deferred_writes()
        self._fire_persist_waiters()
        probes.notify("commit")
        # An end request that arrived mid-checkpoint ends the new epoch
        # at once; a drain round then waits for that epoch's commit.
        if not self.epochs.resume_pending():
            self._drain_step()

    # --- emergency (buffer-full) checkpoint cycles -------------------------------------

    def _run_aux_checkpoint(self) -> None:
        """Flush buffered state without requiring a CPU boundary.

        Used when a DRAM buffer fills mid-epoch (or mid-cache-flush,
        where waiting for an epoch boundary would deadlock).  The
        sub-epoch commit weakens atomicity to the flush point — a real
        property of buffer-capacity-limited journaling/shadow designs.
        """
        run = CheckpointRun(self.engine, self.memctrl,
                            self._checkpoint_stages(),
                            self.layout.commit_record_addr,
                            self._aux_committed,
                            on_stage=self._on_ckpt_stage,
                            roles=[role for role, _dest in self._aux_plan()])
        self._aux_run = run
        run.start()

    def _aux_committed(self) -> None:
        self._aux_run = None
        if self._crashed:
            return
        self._commit_actions()
        probes.notify("aux-commit")
        self._replay_deferred_writes()
