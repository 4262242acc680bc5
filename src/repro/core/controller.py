"""The ThyNVM memory controller.

Implements the paper's dual-scheme checkpointing over the hybrid
DRAM+NVM :class:`~repro.mem.controller.MemoryController`:

* **block remapping** (§3.2) for sparse writes — working copies go
  directly to NVM checkpoint-region slots (or to DRAM temporary slots
  while a checkpoint is in flight), so checkpointing them only persists
  metadata;
* **page writeback** (§3.3) for dense writes — hot pages are cached in
  the DRAM Working Data Region and dirty pages are written back to NVM
  during the checkpointing phase;
* **cooperation** (§3.4) — while a page's writeback checkpoint is in
  flight, incoming stores to it detour through block remapping's DRAM
  temp slots instead of stalling, and pages migrate between schemes
  based on per-epoch store counters.

The controller is *functional*: with ``track_data`` enabled it moves
real bytes, and :meth:`crash` / :meth:`recover` exercise the real
consistency protocol, making crash consistency a testable property.

Policy knobs (:class:`ThyNVMPolicy`) expose the paper's §2.3 ablations:
disabling page writeback gives uniform cache-block-granularity
checkpointing; disabling block remapping gives uniform page-granularity
checkpointing (every write adopts its page).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..config import SystemConfig
from ..cpu.state import CpuState
from ..errors import CrashedError, ProtocolError, SimulationError
from ..mem.controller import DeviceKind, MemoryController
from ..sim.engine import Engine
from ..sim.request import MemoryRequest, Origin
from ..stats.collector import StatsCollector
from . import probes
from .btt import BlockTranslationTable
from .checkpoint import CheckpointRun, Dest, Job
from .coordinator import SchemeCoordinator
from .lifecycle import EpochController
from .metadata import BlockEntry, GcState, PageEntry
from .ptt import PageTranslationTable
from .recovery import MetaSnapshot, RecoveredState, recover, write_record
from .regions import REGION_A, REGION_B, other_region

#: The checkpoint plan, in stage order (Figure 6(b), §4.4): block
#: working copies buffered in DRAM, the BTT, dirty pages, the PTT.
#: Both data stages write the complement of their object's committed
#: region.  ``_plan_checkpoint`` walks it; test_declared_plan.py audits it.
CHECKPOINT_PLAN = (
    ("temp", Dest.COMPLEMENT),
    ("btt", Dest.BACKUP),
    ("page", Dest.COMPLEMENT),
    ("ptt", Dest.BACKUP),
)


@dataclass
class ThyNVMPolicy:
    """Feature switches for the full design and its ablations."""

    enable_page_writeback: bool = True    # False => block-remapping only
    enable_block_remapping: bool = True   # False => page-writeback only
    temp_cooperation: bool = True         # §3.4 detour during page ckpt

    def __post_init__(self) -> None:
        if not self.enable_page_writeback and not self.enable_block_remapping:
            raise SimulationError("at least one checkpointing scheme required")


class ThyNVMController(EpochController):
    """Software-transparent crash-consistent hybrid memory."""

    #: The first forced boundary flushes the caches and checkpoints all
    #: live working copies; the second makes the resulting metadata
    #: durable even for data touched by the first.
    DRAIN_ROUNDS = 2

    #: The declared plan the planners walk.
    PLAN = CHECKPOINT_PLAN

    def __init__(
        self,
        engine: Engine,
        config: SystemConfig,
        memctrl: MemoryController,
        stats: StatsCollector,
        policy: Optional[ThyNVMPolicy] = None,
    ) -> None:
        super().__init__(engine, config, memctrl, stats)
        self.policy = policy if policy is not None else ThyNVMPolicy()

        self.btt = BlockTranslationTable(config.btt_entries,
                                         config.btt_entry_bytes)
        self.ptt = PageTranslationTable(config.ptt_entries,
                                        config.ptt_entry_bytes)
        self.coordinator = SchemeCoordinator(config.promote_threshold,
                                             config.demote_threshold)

        # Working-copy indexes for O(work) checkpoint planning.
        self._temp_by_epoch: Dict[int, Set[int]] = {}
        self._pending_blocks: Set[int] = set()
        self._dirty_pages: Set[int] = set()

        # Checkpoint pipeline state.
        self._aux_plan: List[PageEntry] = []
        self._plan_temp_entries: List[BlockEntry] = []
        self._plan_pending_entries: List[BlockEntry] = []
        self._plan_pages: List[PageEntry] = []
        self._plan_counts: Dict[int, int] = {}
        self._planned_stages: List[List[Job]] = []
        self._boundary_gate: Optional[Dict[str, object]] = None
        self._boundary_cpu_state: Optional[CpuState] = None

        # Deferred work (table/slot overflow parks in the base class's
        # _deferred_writes).  Bounded: past the bound the CPU is stalled,
        # which is how slow checkpointing becomes visible stall time.
        self._blocked_page_writes: List[Tuple] = []  # non-cooperation mode
        self._write_buffer_bound = 64
        self._backpressure_active = False
        # Pages/blocks evicted via synchronous consolidation-to-home.
        # Their region-A copy stays referenced by durable metadata until
        # a fence-covered snapshot excludes it, so each eviction is
        # shadowed for two commits: snapshots keep mapping the block or
        # page to region A, and any re-creation in that window points
        # its writes away from region A.  Value: (region, ttl_commits)
        # for blocks, (region, ttl_commits) for pages.
        self._evicted_blocks: Dict[int, Tuple[int, int]] = {}
        self._evicted_pages: Dict[int, Tuple[int, int]] = {}
        # Emergency-eviction candidates: the BTT's idle entries in table
        # order, built at the first eviction after a commit and walked
        # by a home-region cursor and an any-region cursor.  Entries
        # turn idle only at a commit (or a table rebuild), so a passed
        # entry never needs a second look until the list is dropped.
        self._evict_candidates: Optional[List[BlockEntry]] = None
        self._evict_home_cursor = 0
        self._evict_any_cursor = 0
        self._gc_issued: List[BlockEntry] = []
        self._absorbed_to_drop: List[BlockEntry] = []
        self._migration_unserviced = 0

        # On-chip copy of the last committed metadata.  Its durable twin
        # is the recovery record in the NVM meta slot (the backup region
        # + commit bit), written wherever this is assigned.  Epoch -1:
        # the pristine Home-Region image is always recoverable.
        self.committed_meta: MetaSnapshot = MetaSnapshot(epoch=-1)

    @property
    def committed_epoch(self) -> int:
        return self.committed_meta.epoch

    def _dirty_pressure_threshold(self) -> int:
        # End epochs before the cache accumulates more dirty blocks than
        # the translation tables can absorb at the boundary flush
        # (Dirty-Block-Index-style pressure tracking; paper's [68]).
        if self.policy.enable_block_remapping:
            return (7 * self.btt.capacity) // 10
        return (7 * self.layout.slots_total
                * self.config.blocks_per_page) // 10

    # ------------------------------------------------------------------
    # MemoryPort: reads
    # ------------------------------------------------------------------

    def _read_location(self, block: int) -> Tuple[DeviceKind, int]:
        """Device + hardware address of the software-visible version
        (§4.1: W_active if it exists, else C_last, else home)."""
        page = self.addresses.page_of_block(block)
        pe = self.ptt.lookup(page)
        if pe is not None:
            entry = self.btt.lookup(block)
            if entry is not None and entry.coop_page == page and entry.temp_epochs:
                epoch = entry.newest_temp_epoch()
                return DeviceKind.DRAM, self.layout.temp_block_addr(block, epoch)
            offset = block - self.addresses.blocks_in_page(page).start
            return DeviceKind.DRAM, self.layout.slot_block_addr(pe.dram_slot,
                                                                offset)
        entry = self.btt.lookup(block)
        if entry is None:
            return DeviceKind.NVM, self.layout.home_block_addr(block)
        if entry.temp_epochs:
            epoch = entry.newest_temp_epoch()
            return DeviceKind.DRAM, self.layout.temp_block_addr(block, epoch)
        if entry.pending_epoch is not None:
            region = other_region(entry.stable_region)
            return DeviceKind.NVM, self.layout.region_block_addr(region, block)
        return DeviceKind.NVM, self.layout.region_block_addr(
            entry.stable_region, block)

    # ------------------------------------------------------------------
    # MemoryPort: writes
    # ------------------------------------------------------------------

    def write_block(self, addr: int, origin: Origin,
                    data: Optional[bytes] = None,
                    callback: Optional[Callable[[MemoryRequest], None]] = None,
                    on_accept: Optional[Callable[[], None]] = None,
                    ) -> None:
        """Service a store, steering it per Figure 6(a).

        ``on_accept`` fires when the write is accepted into a device
        queue (the paper's flush stalls only until writebacks are
        *initiated*); ``callback`` fires when it is serviced.
        """
        if self._crashed:
            raise CrashedError("write_block on a crashed controller")
        block = self.addresses.block_index(addr)
        page = self.addresses.page_of_block(block)
        pe = self.ptt.lookup(page)
        if pe is not None:
            self._page_write(pe, block, page, addr, origin, data, callback,
                             on_accept)
        else:
            self._block_write(block, page, addr, origin, data, callback,
                              on_accept)

    # --- page writeback path ------------------------------------------------

    def _page_write(self, pe: PageEntry, block: int, page: int, addr: int,
                    origin: Origin, data, callback, on_accept=None) -> None:
        pe.bump_store(self.epochs.active_epoch)
        self.ptt.mark_dirty(page)
        self.coordinator.note_store(page)
        if pe.ckpt_in_progress:
            if self.policy.temp_cooperation:
                self._coop_temp_write(pe, block, page, addr, origin, data,
                                      callback, on_accept)
            else:
                # Uniform page-granularity checkpointing stalls here: the
                # write waits until the page's checkpoint commits.
                self._blocked_page_writes.append(
                    (addr, origin, data, callback, on_accept))
                if len(self._blocked_page_writes) > self._write_buffer_bound:
                    self._backpressure_stall("checkpoint")
            return
        offset = block - self.addresses.blocks_in_page(page).start
        pe.dirty_active.add(offset)
        self._dirty_pages.add(page)
        hw_addr = self.layout.slot_block_addr(pe.dram_slot, offset)
        self._issue_write(DeviceKind.DRAM, hw_addr, origin, data, callback,
                          on_accept)

    def _coop_temp_write(self, pe: PageEntry, block: int, page: int,
                         addr: int, origin: Origin, data, callback,
                         on_accept=None) -> None:
        """§3.4: absorb a write to a mid-checkpoint page via the BTT."""
        entry = self.btt.lookup(block)
        if entry is None:
            entry = self.btt.create(block)
            if entry is None and self._emergency_evict_block():
                entry = self.btt.create(block)
            if entry is None:
                self._defer_write(addr, origin, data, callback, on_accept,
                                  "overflow")
                return
            entry.coop_page = page
        if entry.coop_page not in (None, page):
            raise ProtocolError(
                f"block {block}: BTT entry already cooperating for page "
                f"{entry.coop_page}, store targets page {page}")
        # An entry absorbed by this page's promotion may be reused as the
        # cooperation container; the merge at commit drops it either way.
        entry.coop_page = page
        epoch = self.epochs.active_epoch
        self._add_temp(entry, epoch)
        entry.bump_store(epoch)
        self.btt.mark_dirty(block)
        hw_addr = self.layout.temp_block_addr(block, epoch)
        self._issue_write(DeviceKind.DRAM, hw_addr, origin, data, callback,
                          on_accept)

    # --- block remapping path -------------------------------------------------

    def _block_write(self, block: int, page: int, addr: int,
                     origin: Origin, data, callback, on_accept=None) -> None:
        if not self.policy.enable_block_remapping:
            self._adopt_and_write(block, page, addr, origin, data, callback,
                                  on_accept)
            return
        entry = self.btt.lookup(block)
        if entry is None:
            shadow = self._evicted_blocks.get(block)
            stable = shadow[0] if shadow is not None else REGION_B
            entry = self.btt.create(block, stable)
            if entry is None and self._emergency_evict_block():
                entry = self.btt.create(block, stable)
            if entry is None:
                self._defer_write(addr, origin, data, callback, on_accept,
                                  "overflow")
                return
            if self.btt.free_entries < max(1, self.btt.capacity // 8):
                # High watermark: end the epoch early so GC can free
                # entries before the table hard-overflows mid-flush.
                self.epochs.request_end("overflow")
        if entry.absorbed_by_page:
            raise ProtocolError(
                f"block {block}: absorbed entry outside its PTT page")
        if entry.gc_state is GcState.ISSUED:
            entry.gc_state = GcState.NONE   # cancel the consolidation drop
        epoch = self.epochs.active_epoch
        entry.bump_store(epoch)
        self.coordinator.note_store(page)
        self.btt.mark_dirty(block)

        ckpt_epoch = self.epochs.ckpt_epoch
        # Figure 6(a)'s "Still ckpting C_last?" is a *per-block* check:
        # only a block whose own last-epoch copy is part of the in-flight
        # checkpoint must buffer in DRAM (its NVM complement slot holds
        # either the being-committed copy or is the target of an
        # in-flight temp->NVM copy).  Any other block's complement slot
        # is unreferenced by the durable metadata and is written direct.
        own_copy_in_flight = ckpt_epoch is not None and (
            entry.pending_epoch == ckpt_epoch
            or ckpt_epoch in entry.temp_epochs)
        if epoch in entry.temp_epochs:
            kind = DeviceKind.DRAM
            hw_addr = self.layout.temp_block_addr(block, epoch)
        elif own_copy_in_flight:
            self._add_temp(entry, epoch)
            kind = DeviceKind.DRAM
            hw_addr = self.layout.temp_block_addr(block, epoch)
        else:
            if entry.pending_epoch not in (None, epoch):
                raise ProtocolError(
                    f"block {block}: stale pending epoch "
                    f"{entry.pending_epoch} in epoch {epoch}")
            entry.pending_epoch = epoch
            self._pending_blocks.add(block)
            kind = DeviceKind.NVM
            region = other_region(entry.stable_region)
            hw_addr = self.layout.region_block_addr(region, block)
        self._issue_write(kind, hw_addr, origin, data, callback, on_accept)

    def _adopt_and_write(self, block: int, page: int, addr: int,
                         origin: Origin, data, callback,
                         on_accept=None) -> None:
        """Page-only ablation: the first write to a page adopts it."""
        pe = self._adopt_page(page)
        if pe is None:
            # Capacity-stalled adoptions acknowledge immediately and are
            # replayed after the next commit, i.e. they land in the
            # *next* checkpoint.  Page-granularity checkpointing under
            # DRAM pressure genuinely loses epoch atomicity this way
            # (part of why the paper rejects it); the recovery-atomicity
            # tests therefore exclude this ablation.
            self._defer_write(addr, origin, data, callback, on_accept,
                              "dram_full")
            # If every DRAM page is dirty, no epoch boundary can free
            # one (the boundary flush is itself waiting on this write):
            # flush dirty pages mid-epoch instead, like any real
            # buffer-capacity-limited writeback design.
            self._maybe_aux_page_flush()
            return
        self._page_write(pe, block, page, addr, origin, data, callback,
                         on_accept)

    def _maybe_aux_page_flush(self) -> None:
        """Sub-epoch checkpoint of all dirty pages (capacity valve).

        Only runs when no regular checkpoint is in flight; a regular
        checkpoint's commit retries deferred writes anyway.  The commit
        is mid-epoch, so atomicity weakens to the flush point — a real
        property of page-granularity checkpointing under DRAM pressure,
        and part of why the paper rejects uniform page granularity.
        """
        if self._aux_run is not None or self._ckpt_run is not None:
            return
        plan = [pe for _page, pe in self.ptt
                if pe.dirty_active and not pe.ckpt_in_progress]
        if not plan:
            return
        for pe in plan:
            self._dirty_pages.discard(pe.page)
        layout = self.layout
        jobs = self._page_writeback_jobs(plan, dict(self.PLAN)["page"])
        ptt_jobs = self._table_persist_jobs(
            self.ptt, layout.ptt_backup_offset, layout.ptt_backup_blocks)
        self._aux_plan = plan
        self._aux_run = CheckpointRun(
            self.engine, self.memctrl, [jobs, ptt_jobs],
            layout.commit_record_addr, self._aux_committed,
            roles=("page", "ptt"))
        self._aux_run.start()

    def _aux_committed(self) -> None:
        if self._crashed:
            return
        self._aux_run = None
        for pe in self._aux_plan:
            pe.stable_region = other_region(pe.stable_region)
            pe.dirty_ckpt = set()
            pe.ckpt_in_progress = False
            self.ptt.mark_dirty(pe.page)
        self._aux_plan = []
        self.committed_meta = self._snapshot(self.epochs.active_epoch)
        self._write_record()
        self._retry_blocked_writes()
        self._release_backpressure()
        probes.notify("aux-commit")

    # --- shared write helpers -----------------------------------------------------

    def _add_temp(self, entry: BlockEntry, epoch: int) -> None:
        entry.temp_epochs.add(epoch)
        self._temp_by_epoch.setdefault(epoch, set()).add(entry.block)

    def _issue_fire_and_forget(self, kind: DeviceKind, hw_addr: int,
                               is_write: bool, origin: Origin,
                               data=None) -> None:
        request = MemoryRequest(hw_addr, is_write, origin, data=data)
        if is_write and origin is Origin.MIGRATION and kind is DeviceKind.NVM:
            # Dropping a table entry is only safe once its consolidation
            # write is durable; commits defer drops while any migration
            # write is still outstanding (a queue-full wait can carry it
            # past the commit fence).
            self._migration_unserviced += 1
            request.callback = self._migration_serviced
        if self._crashed:
            return
        self.memctrl.submit_or_wait(kind, request)

    def _migration_serviced(self, *_completion) -> None:
        """One migration write block is durable: a single request's
        callback ``(request)`` or a run's ``(run, index, payload)``."""
        self._migration_unserviced -= 1

    def _defer_write(self, addr: int, origin: Origin, data, callback,
                     on_accept, reason: str) -> None:
        """Park a write that found no table entry / DRAM slot.

        The write is acknowledged immediately and replayed after the
        next commit, i.e. under extreme table pressure it lands in the
        *next* checkpoint.  The dirty-pressure watermark makes this a
        last-resort relief valve rather than a steady state; functional
        crash tests size their working sets to stay clear of it.
        """
        self._park_write(addr, origin, data, callback, on_accept)
        if len(self._deferred_writes) > self._write_buffer_bound:
            self._backpressure_stall("backpressure")
        self.epochs.request_end(reason)

    def _backpressure_stall(self, reason: str) -> None:
        """Freeze the CPU until the next commit frees buffered writes."""
        if (self.core is None or self.core.finished
                or self._backpressure_active
                or self.core.stalled or self.core.stall_pending):
            return
        self._backpressure_active = True
        self.core.stall_at_next_boundary(reason, lambda: None)

    def _release_backpressure(self) -> None:
        if not self._backpressure_active or self.core is None:
            return
        self._backpressure_active = False
        if self.core.stalled:
            self.core.resume()
        elif self.core.stall_pending:
            self.core.cancel_stall_request()

    def _emergency_evict_block(self) -> bool:
        """Free one BTT entry mid-epoch (§4.3 overflow handling).

        The first idle entry in table order whose C_last is already at
        home drops for free.  Failing that, the first idle entry (its
        C_last is in region A) is consolidated to home synchronously
        (payload captured now, write enqueued now, durable by the next
        commit's fence); a two-commit shadow keeps any re-created entry
        pointing its writes away from the still-referenced region A
        copy.  Both picks come from the per-commit candidate list, so
        an interval's evictions cost one pass over the table in all.
        """
        candidates = self._evict_candidates
        if candidates is None:
            candidates = [entry for _block, entry in self.btt
                          if entry.is_idle]
            self._evict_candidates = candidates
            self._evict_home_cursor = self._evict_any_cursor = 0
        self._evict_home_cursor, entry = self._next_evict_candidate(
            candidates, self._evict_home_cursor, home_only=True)
        if entry is not None:
            self.btt.remove(entry.block)
            return True
        self._evict_any_cursor, entry = self._next_evict_candidate(
            candidates, self._evict_any_cursor, home_only=False)
        if entry is None:
            return False
        block = entry.block
        src = self.layout.region_block_addr(REGION_A, block)
        dst = self.layout.home_block_addr(block)
        nvm = self.memctrl.functional_store(DeviceKind.NVM)
        data = nvm.read(src)
        nvm.write(dst, data)
        self._issue_fire_and_forget(DeviceKind.NVM, dst, True,
                                    Origin.MIGRATION, data=data)
        self._evicted_blocks[block] = (REGION_A, 2)
        self.btt.remove(block)
        return True

    def _next_evict_candidate(self, candidates: List[BlockEntry],
                              cursor: int, home_only: bool
                              ) -> Tuple[int, Optional[BlockEntry]]:
        """Walk ``candidates`` from ``cursor`` to the next entry that is
        still idle and still the BTT's (home-region only if
        ``home_only``).  Returns the cursor past it, and the entry or
        ``None`` at the end of the list."""
        btt = self.btt
        while cursor < len(candidates):
            entry = candidates[cursor]
            cursor += 1
            if ((not home_only or entry.stable_region == REGION_B)
                    and entry.is_idle and btt.get(entry.block) is entry):
                return cursor, entry
        return cursor, None

    # ------------------------------------------------------------------
    # Epoch boundary (execution phase -> checkpointing phase)
    # ------------------------------------------------------------------

    def _on_epoch_end(self, reason: str) -> None:
        if self._crashed:
            return
        if reason == "overflow":
            self.stats.epochs_forced_by_overflow += 1
        if self.core is not None and not self.core.finished:
            if self.core.stalled:
                # A backpressure stall is already holding the core at a
                # boundary; the flush takes the stall over.
                self._backpressure_active = False
                self.core.change_stall_reason("flush")
                self._begin_boundary()
            elif self.core.stall_pending:
                self._backpressure_active = False
                self.core.cancel_stall_request()
                self.core.stall_at_next_boundary("flush",
                                                 self._begin_boundary)
            else:
                self.core.stall_at_next_boundary("flush",
                                                 self._begin_boundary)
        else:
            self._begin_boundary()

    def _begin_boundary(self) -> None:
        """CPU is frozen: flush its state and all dirty cache blocks.

        The stall lasts only as long as writeback *initiation* (§4.4:
        the flush initiates writebacks without invalidating); the
        checkpointing phase itself starts once every flush write has
        been accepted into a controller queue, so the commit fence is
        guaranteed to cover it.
        """
        if self._crashed:
            return
        if self.core is not None:
            self._boundary_cpu_state = self.core.state.capture()
        else:
            self._boundary_cpu_state = CpuState(self.config.cpu_state_bytes)

        self._boundary_gate = {"accept_parts": 2, "planned": False}

        # CPU-state writes to the backup region (§4.4).
        state_blocks = -(-self.config.cpu_state_bytes // self.config.block_bytes)
        remaining = {"n": state_blocks}

        def state_write_accepted() -> None:
            remaining["n"] -= 1
            if remaining["n"] == 0:
                self._boundary_accept_part()

        for i in range(state_blocks):
            hw_addr = self.layout.backup_addr(i * self.config.block_bytes)
            self._issue_write(DeviceKind.NVM, hw_addr, Origin.FLUSH,
                              None, None, on_accept=state_write_accepted)

        # Dirty cache blocks (writeback-without-invalidate).
        if self.hierarchy is not None:
            self.hierarchy.flush_dirty(
                Origin.FLUSH,
                on_accepted=lambda _n: self._boundary_accept_part(),
                on_initiated=lambda _n: self._boundary_plan())
        else:
            self._boundary_accept_part()
            self._boundary_plan()

    def _boundary_accept_part(self) -> None:
        if self._crashed or self._boundary_gate is None:
            return
        self._boundary_gate["accept_parts"] -= 1
        self._maybe_start_checkpoint()

    def _boundary_plan(self) -> None:
        """Flush initiated: plan epoch C's checkpoint (translation state
        is final for C), open epoch C+1 and resume the CPU."""
        if self._crashed:
            return
        epoch = self.epochs.active_epoch
        self._plan_counts = self.coordinator.epoch_rollover()
        self._planned_stages = self._plan_checkpoint(epoch)
        self.epochs.execution_phase_done()
        if self.core is not None and self.core.stalled:
            self.core.resume()
        if self._boundary_gate is not None:
            self._boundary_gate["planned"] = True
        self._maybe_start_checkpoint()

    def _maybe_start_checkpoint(self) -> None:
        gate = self._boundary_gate
        if gate is None or not gate["planned"] or gate["accept_parts"] > 0:
            return
        self._boundary_gate = None
        stages, self._planned_stages = self._planned_stages, []
        self._ckpt_run = CheckpointRun(
            self.engine, self.memctrl, stages,
            self.layout.commit_record_addr, self._on_commit,
            roles=[role for role, _dest in self.PLAN])
        self._ckpt_run.start()

    # ------------------------------------------------------------------
    # Checkpoint planning (Figure 6(b) order)
    # ------------------------------------------------------------------

    def _plan_checkpoint(self, epoch: int) -> List[List[Job]]:
        """Epoch ``epoch``'s checkpoint: one stage per ``PLAN`` entry,
        in declared order, each data stage aimed by its rule."""
        layout = self.layout
        # Blocks updated in place in NVM: metadata-only checkpointing —
        # the whole point of block remapping.
        self._plan_pending_entries = [
            e for e in (self.btt.lookup(b) for b in sorted(self._pending_blocks))
            if e is not None and e.pending_epoch == epoch
        ]
        self._pending_blocks.clear()

        stages: List[List[Job]] = []
        for role, dest in self.PLAN:
            if role == "temp":
                stages.append(self._temp_stage_jobs(epoch, dest))
            elif role == "btt":
                stages.append(self._table_persist_jobs(
                    self.btt, layout.btt_backup_offset,
                    layout.btt_backup_blocks))
            elif role == "page":
                self._plan_pages = [
                    pe for pe in map(self.ptt.lookup, sorted(self._dirty_pages))
                    if pe is not None and pe.dirty_active]
                self._dirty_pages.clear()
                stages.append(self._page_writeback_jobs(self._plan_pages,
                                                        dest))
            elif role == "ptt":
                stages.append(self._table_persist_jobs(
                    self.ptt, layout.ptt_backup_offset,
                    layout.ptt_backup_blocks))
            else:
                raise ProtocolError(f"no planner for checkpoint stage {role!r}")

        # Reset per-entry store counters for the new epoch.
        for _index, entry in self.btt:
            entry.store_count = 0
        for _index, pe in self.ptt:
            pe.store_count = 0
        self.stats.table_entries_peak = max(
            self.stats.table_entries_peak, len(self.btt) + len(self.ptt))
        self.stats.btt_peak_entries = self.btt.peak_occupancy
        self.stats.ptt_peak_entries = self.ptt.peak_occupancy
        return stages

    def _temp_stage_jobs(self, epoch: int, dest: Dest) -> List[Job]:
        """DRAM-buffered block working copies of ``epoch`` -> NVM."""
        layout = self.layout
        jobs: List[Job] = []
        self._plan_temp_entries = []
        for block in sorted(self._temp_by_epoch.pop(epoch, ())):
            entry = self.btt.lookup(block)
            if entry is None or epoch not in entry.temp_epochs:
                continue
            if entry.coop_page is not None:
                # Cooperation temps are merged into their page at the
                # commit of the checkpoint they detoured around, which
                # always precedes this epoch's own boundary.
                raise ProtocolError(
                    f"block {block}: unmerged cooperation temp at epoch "
                    f"{epoch} boundary")
            self._plan_temp_entries.append(entry)
            jobs.append(Job(
                dst_kind=DeviceKind.NVM,
                dst_addr=layout.region_block_addr(
                    dest.region(entry.stable_region), block),
                origin=Origin.CHECKPOINT,
                src_kind=DeviceKind.DRAM,
                src_addr=layout.temp_block_addr(block, epoch),
            ))
        return jobs

    def _page_writeback_jobs(self, pages: List[PageEntry],
                             dest: Dest) -> List[Job]:
        """Start each page's checkpoint: its DRAM slot, as one bulk copy
        job, to the region ``dest`` names (the epoch plan's page stage
        and the sub-epoch flush alike)."""
        layout = self.layout
        jobs: List[Job] = []
        for pe in pages:
            pe.dirty_ckpt = pe.dirty_active
            pe.dirty_active = set()
            pe.ckpt_in_progress = True
            jobs.append(Job(
                dst_kind=DeviceKind.NVM,
                dst_addr=layout.region_page_addr(
                    dest.region(pe.stable_region), pe.page),
                origin=Origin.CHECKPOINT,
                src_kind=DeviceKind.DRAM,
                src_addr=layout.page_slot_addr(pe.dram_slot),
                count=self.config.blocks_per_page,
                stride=self.config.block_bytes,
            ))
        return jobs

    def _table_persist_jobs(self, table, base_offset: int,
                            area_blocks: int) -> List[Job]:
        nbytes = table.persist_bytes()
        table.clear_dirty()
        block_bytes = self.config.block_bytes
        nblocks = -(-nbytes // block_bytes) if nbytes else 0
        jobs = []
        for i in range(nblocks):
            hw_addr = self.layout.backup_addr(
                base_offset + (i % area_blocks) * block_bytes)
            jobs.append(Job(dst_kind=DeviceKind.NVM, dst_addr=hw_addr,
                            origin=Origin.CHECKPOINT))
        if jobs:
            probes.notify("table-persist",
                          "btt" if table is self.btt else "ptt")
        return jobs

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _on_commit(self) -> None:
        if self._crashed:
            return
        # The flips, merges and drops below are where entries turn idle.
        self._evict_candidates = None
        epoch = self.epochs.ckpt_epoch
        self._account_commit()

        # 1. Version flips: working copies become C_last (§3.2, §3.3).
        for entry in self._plan_temp_entries:
            entry.temp_epochs.discard(epoch)
            if entry.coop_page is None:
                entry.stable_region = other_region(entry.stable_region)
            self.btt.mark_dirty(entry.block)
        for entry in self._plan_pending_entries:
            entry.pending_epoch = None
            entry.stable_region = other_region(entry.stable_region)
            self.btt.mark_dirty(entry.block)
        for pe in self._plan_pages:
            pe.stable_region = other_region(pe.stable_region)
            pe.dirty_ckpt = set()
            pe.ckpt_in_progress = False
            self.ptt.mark_dirty(pe.page)
        self._plan_temp_entries = []
        self._plan_pending_entries = []

        # 2. Merge cooperation temps of the (still) active epoch into
        # their now-checkpointed pages.
        self._merge_coop_temps()

        # 3. Drop entries whose consolidation became durable.  If any
        # migration write is still outstanding (e.g. stuck behind a full
        # queue across the commit fence), defer all drops one commit.
        if self._migration_unserviced == 0:
            for entry in self._absorbed_to_drop:
                self.btt.remove(entry.block)
            self._absorbed_to_drop = []
            for entry in self._gc_issued:
                if entry.gc_state is GcState.ISSUED:
                    self.btt.remove(entry.block)
                # else: a new write cancelled the consolidation.
            self._gc_issued = []
            self._finish_demotions()

        # 4. Durable metadata snapshot — the atomic commit (§4.2).
        self.committed_meta = self._snapshot(epoch)
        self._write_record()

        # 5. Scheme switching for the coming epochs (§3.4).
        self._apply_scheme_switches()

        # 6. Bookkeeping and pipeline release: an end request that
        # arrived mid-checkpoint is honoured before anything else.
        self._plan_pages = []
        self._age_eviction_shadows()
        self.epochs.checkpoint_committed()
        self.epochs.resume_pending()
        self._retry_blocked_writes()
        self._release_backpressure()
        self._fire_persist_waiters()
        probes.notify("commit")
        self._drain_step()

    def _age_eviction_shadows(self) -> None:
        for shadow in (self._evicted_blocks, self._evicted_pages):
            expired = []
            for key, (region, ttl) in shadow.items():
                if ttl <= 1:
                    expired.append(key)
                else:
                    shadow[key] = (region, ttl - 1)
            for key in expired:
                del shadow[key]

    def _merge_coop_temps(self) -> None:
        active = self.epochs.active_epoch
        dram = self.memctrl.functional_store(DeviceKind.DRAM)
        for block in sorted(self._temp_by_epoch.get(active, set())):
            entry = self.btt.lookup(block)
            if entry is None or entry.coop_page is None:
                continue
            page = entry.coop_page
            pe = self.ptt.lookup(page)
            if pe is None:
                raise ProtocolError(
                    f"coop temp for block {block} but page {page} untracked")
            offset = block - self.addresses.blocks_in_page(page).start
            temp_addr = self.layout.temp_block_addr(block, active)
            slot_addr = self.layout.slot_block_addr(pe.dram_slot, offset)
            dram.copy_block(temp_addr, slot_addr)
            self._issue_fire_and_forget(DeviceKind.DRAM, slot_addr, True,
                                        Origin.MIGRATION)
            pe.dirty_active.add(offset)
            self._dirty_pages.add(page)
            entry.temp_epochs.discard(active)
            self._temp_by_epoch.get(active, set()).discard(block)
            self.btt.remove(block)

    def _finish_demotions(self) -> None:
        for page, pe in list(self.ptt):
            if not pe.demote_requested:
                continue
            if pe.is_dirty or pe.ckpt_in_progress:
                pe.demote_requested = False   # cancelled by new writes
                continue
            self.ptt.remove(page)
            self.layout.release_slot(pe.dram_slot)

    def _snapshot(self, epoch: int) -> MetaSnapshot:
        # Evicted-but-not-yet-fence-covered translations stay in the
        # snapshot; live entries override them (values coincide anyway).
        blocks = {block: region
                  for block, (region, _ttl) in self._evicted_blocks.items()}
        blocks.update(
            (block, entry.stable_region)
            for block, entry in self.btt
            if entry.coop_page is None)
        pages = {page: (region, 0)
                 for page, (region, _ttl) in self._evicted_pages.items()}
        pages.update(
            (page, (pe.stable_region, pe.dram_slot))
            for page, pe in self.ptt)
        return MetaSnapshot(epoch=epoch, block_regions=blocks,
                            page_regions=pages,
                            cpu_state=self._boundary_cpu_state)

    def _write_record(self) -> None:
        """Persist the committed snapshot as the NVM recovery record."""
        write_record(self.memctrl.functional_store(DeviceKind.NVM),
                     self.committed_meta)

    # ------------------------------------------------------------------
    # Scheme switching + GC (executed at commit, after the snapshot)
    # ------------------------------------------------------------------

    def _apply_scheme_switches(self) -> None:
        counts = self._plan_counts
        self._plan_counts = {}
        committed_epoch = self.committed_meta.epoch

        if self.policy.enable_page_writeback and self.policy.enable_block_remapping:
            for page in self.coordinator.select_promotions(
                    counts, self.ptt, self.layout.slots_free):
                self._promote_page(page)

        if self.policy.enable_page_writeback:
            for pe in self.coordinator.select_demotions(counts, self.ptt):
                self._start_demotion(pe)

        # GC runs only under table pressure: consolidating idle entries
        # costs NVM bandwidth, so a mostly-empty BTT leaves them be.
        if (self.policy.enable_block_remapping
                and len(self.btt) >= (3 * self.btt.capacity) // 4):
            candidates = self.coordinator.select_gc(self.btt, committed_epoch)
            for entry in candidates:
                if entry.stable_region == REGION_B:
                    self.btt.remove(entry.block)
                else:
                    self._start_consolidation(entry)

    def _start_consolidation(self, entry: BlockEntry) -> None:
        """Copy an idle block's C_last from region A to home (B) so its
        BTT entry can be freed at the next commit.

        The payload is captured functionally and the home write is
        enqueued *now*: the NVM write-queue drain preceding the next
        commit then guarantees it is durable before the entry drops,
        and same-address FIFO keeps any later write to the home slot
        ordered after it.
        """
        entry.gc_state = GcState.ISSUED
        self._gc_issued.append(entry)
        src = self.layout.region_block_addr(REGION_A, entry.block)
        dst = self.layout.home_block_addr(entry.block)
        data = self.memctrl.functional_store(DeviceKind.NVM).read(src)
        self._issue_fire_and_forget(DeviceKind.NVM, src, False,
                                    Origin.MIGRATION)
        self._issue_fire_and_forget(DeviceKind.NVM, dst, True,
                                    Origin.MIGRATION, data=data)

    def _start_demotion(self, pe: PageEntry) -> None:
        pe.demote_requested = True
        self.stats.pages_demoted += 1
        probes.notify("demote", str(pe.page))
        if pe.stable_region == REGION_A:
            src_base = self.layout.page_slot_addr(pe.dram_slot)
            dst_base = self.layout.region_page_addr(REGION_B, pe.page)
            dram = self.memctrl.functional_store(DeviceKind.DRAM)
            for offset in range(self.config.blocks_per_page):
                step = offset * self.config.block_bytes
                data = dram.read(src_base + step)
                self._issue_fire_and_forget(DeviceKind.DRAM, src_base + step,
                                            False, Origin.MIGRATION)
                self._issue_fire_and_forget(DeviceKind.NVM, dst_base + step,
                                            True, Origin.MIGRATION, data=data)

    def _promote_page(self, page: int) -> None:
        stable = self._promotion_region(page)
        if stable is None:
            return   # mixed-region references; try again at a later commit
        slot = self.layout.allocate_slot()
        if slot is None:
            return
        pe = self.ptt.create(page, slot, stable)
        if pe is None:
            self.layout.release_slot(slot)
            return
        self.stats.pages_promoted += 1
        probes.notify("promote", str(page))
        self._assemble_page(pe)

    def _promotion_region(self, page: int) -> Optional[int]:
        """Initial stable region for a promotion, or None to defer.

        The page's first checkpoint writes the full page image into the
        complement of its initial stable region — and the per-page and
        per-block region addresses alias.  The metadata snapshot that
        committed *before* the promotion keeps referencing the page's
        blocks at their old per-block regions until the first page
        checkpoint commits, so that writeback must target the region
        holding *none* of those committed copies or a crash mid-writeback
        would corrupt the recovery image.  Declaring the region that
        holds them all as the entry's initial stable region is also
        functionally truthful: its page range is exactly the union of
        the per-block copies (a freshly hot page has all blocks at
        region A; an idle home page has them all at B).  Pages whose
        committed copies straddle both regions have no safe writeback
        target yet — defer those (at worst one commit, since blocks
        written every epoch alternate regions together).
        """
        if page in self._evicted_pages:
            return None   # fence-covered page copy still referenced
        ref_a = ref_b = False
        for block in self.addresses.blocks_in_page(page):
            entry = self.btt.lookup(block)
            if entry is not None:
                if entry.coop_page is not None:
                    continue   # committed reference goes via its page
                region = entry.stable_region
            else:
                shadow = self._evicted_blocks.get(block)
                region = shadow[0] if shadow is not None else REGION_B
            if region == REGION_A:
                ref_a = True
            else:
                ref_b = True
        if ref_a and ref_b:
            return None
        return REGION_A if ref_a else REGION_B

    def _adopt_page(self, page: int) -> Optional[PageEntry]:
        """Page-only mode: adopt on first write, mid-epoch."""
        slot = self.layout.allocate_slot()
        if slot is None and self._emergency_evict_page():
            slot = self.layout.allocate_slot()
        if slot is None:
            return None
        shadow = self._evicted_pages.get(page)
        stable = shadow[0] if shadow is not None else REGION_B
        pe = self.ptt.create(page, slot, stable)
        if pe is None:
            self.layout.release_slot(slot)
            return None
        self._assemble_page(pe)
        if self.layout.slots_free < max(1, self.layout.slots_total // 8):
            self.epochs.request_end("dram_full")
        return pe

    def _emergency_evict_page(self) -> bool:
        """Free one DRAM page slot mid-epoch.

        Clean pages whose C_last is already at home are dropped for
        free.  Failing that, a clean page with C_last in region A is
        consolidated to home synchronously (its DRAM copy equals
        C_last); a one-commit hint makes any re-adoption keep pointing
        its first checkpoint away from the still-referenced region A
        copy, preserving recoverability of the committed state.
        """
        fallback: Optional[PageEntry] = None
        for page, pe in self.ptt:
            if pe.is_dirty or pe.ckpt_in_progress:
                continue
            # Pages mid-demotion are clean too; evicting one simply
            # completes the demotion early (the consolidation write it
            # may need is idempotent).
            if pe.stable_region == REGION_B:
                self.ptt.remove(page)
                self.layout.release_slot(pe.dram_slot)
                return True
            if fallback is None:
                fallback = pe
        if fallback is None:
            return False
        pe = fallback
        src_base = self.layout.page_slot_addr(pe.dram_slot)
        dst_base = self.layout.region_page_addr(REGION_B, pe.page)
        dram = self.memctrl.functional_store(DeviceKind.DRAM)
        nvm = self.memctrl.functional_store(DeviceKind.NVM)
        blocks = self.config.blocks_per_page
        payload = dram.read_run(src_base, blocks)
        nvm.write_run(dst_base, blocks, payload)
        # One data-carrying run; each block counts as an outstanding
        # migration write until it is serviced (_issue_fire_and_forget).
        self._migration_unserviced += blocks
        self._issue_bulk_write_traffic(
            DeviceKind.NVM, dst_base, Origin.MIGRATION, blocks,
            self.config.block_bytes, data=payload,
            callback=self._migration_serviced)
        self._evicted_pages[pe.page] = (REGION_A, 2)
        self.ptt.remove(pe.page)
        self.layout.release_slot(pe.dram_slot)
        return True

    def _assemble_page(self, pe: PageEntry) -> None:
        """Gather a page's visible blocks into its new DRAM slot and
        consolidate scattered checkpoint copies into the Home Region.

        The functional copy happens immediately, block by block (so
        reads are never served from a half-built page).  The bus traffic
        it costs is issued as asynchronous MIGRATION runs: one NVM read
        run per maximal stretch of blocks read from the same region, and
        one payload-free DRAM write run over the slot, each issued where
        its first block's request stands in block order.  A region-A
        block's home write stays a single request carrying its payload
        (docs/PERFORMANCE.md, "ThyNVM page runs").
        """
        layout = self.layout
        dram = self.memctrl.functional_store(DeviceKind.DRAM)
        nvm = self.memctrl.functional_store(DeviceKind.NVM)
        blocks = self.config.blocks_per_page
        block_bytes = self.config.block_bytes
        first_block = self.addresses.blocks_in_page(pe.page).start
        active = self.epochs.active_epoch
        entries = [self.btt.lookup(first_block + offset)
                   for offset in range(blocks)]
        # Where each block is read from: its committed region, or None
        # for live working data in a DRAM temp slot (no NVM read).
        sources = [None if entry is not None and entry.temp_epochs
                   else entry.stable_region if entry is not None
                   else REGION_B for entry in entries]
        for offset, entry in enumerate(entries):
            block = first_block + offset
            slot_addr = layout.slot_block_addr(pe.dram_slot, offset)
            region = sources[offset]
            if region is not None and (offset == 0
                                       or sources[offset - 1] != region):
                end = offset + 1
                while end < blocks and sources[end] == region:
                    end += 1
                self._issue_bulk_read_traffic(
                    DeviceKind.NVM, layout.region_block_addr(region, block),
                    Origin.MIGRATION, end - offset, block_bytes)
            if offset == 0:
                self._issue_bulk_write_traffic(
                    DeviceKind.DRAM, layout.page_slot_addr(pe.dram_slot),
                    Origin.MIGRATION, blocks, block_bytes)
            if region is None:
                # Live working data written by the active epoch: merge it
                # and remember it is not yet checkpointed.
                epoch = entry.newest_temp_epoch()
                temp_addr = layout.temp_block_addr(block, epoch)
                dram.copy_block(temp_addr, slot_addr)
                pe.dirty_active.add(offset)
                self._dirty_pages.add(pe.page)
                entry.temp_epochs.clear()
                self._temp_by_epoch.get(active, set()).discard(block)
            else:
                if entry is not None and entry.pending_epoch is not None:
                    raise ProtocolError(
                        f"block {block}: pending copy survived commit")
                src = layout.region_block_addr(region, block)
                dram.write(slot_addr, nvm.read(src))
                if entry is not None and region == REGION_A:
                    if entry.gc_state is not GcState.ISSUED:
                        self._issue_fire_and_forget(
                            DeviceKind.NVM, layout.home_block_addr(block),
                            True, Origin.MIGRATION, data=nvm.read(src))
            if entry is not None:
                entry.absorbed_by_page = True
                entry.coop_page = None
                entry.gc_state = GcState.NONE
                self._absorbed_to_drop.append(entry)

    # ------------------------------------------------------------------
    # Deferred / blocked write retry
    # ------------------------------------------------------------------

    def _retry_blocked_writes(self) -> None:
        blocked, self._blocked_page_writes = self._blocked_page_writes, []
        self._replay_deferred_writes(blocked)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self) -> RecoveredState:
        """Run the §4.5 recovery procedure against NVM contents alone
        (the recovery record, never :attr:`committed_meta`)."""
        return recover(self.config, self.memctrl)

    def restore_from(self, recovered: RecoveredState) -> None:
        """Resume operation after :meth:`recover`: rebuild the live
        BTT/PTT from the durable metadata (hardware reloading its tables
        at boot, §4.5) so execution can continue — and crash again —
        seamlessly.
        """
        if not self._crashed:
            raise SimulationError("restore_from is only valid after a crash")
        meta = recovered.meta
        epoch = meta.epoch + 1

        # Rebuild translation state.  recover() already copied every
        # PTT page's checkpoint into its recorded DRAM slot.
        self.btt = BlockTranslationTable(self.config.btt_entries,
                                         self.config.btt_entry_bytes)
        self.ptt = PageTranslationTable(self.config.ptt_entries,
                                        self.config.ptt_entry_bytes)
        self._evict_candidates = None
        self._evicted_blocks = {}
        self._evicted_pages = {}
        overflow = []
        for block, region in meta.block_regions.items():
            if self.btt.create(block, region) is None:
                overflow.append((block, region))
        for block, region in overflow:
            # More durable entries than table capacity (eviction shadows
            # were live at the crash): consolidate the extras to home,
            # shadowed until a fence-covered snapshot excludes them.
            nvm = self.memctrl.functional_store(DeviceKind.NVM)
            src = self.layout.region_block_addr(region, block)
            dst = self.layout.home_block_addr(block)
            nvm.write(dst, nvm.read(src))
            self._evicted_blocks[block] = (region, 2)
        for page, (region, slot) in meta.page_regions.items():
            if self.ptt.create(page, slot, region) is None:
                raise SimulationError(
                    "recovered PTT exceeds capacity; cannot resume")
        self.layout.reset_slots(
            slot for _region, slot in meta.page_regions.values())

        # Fresh pipeline state in a powered-on machine.
        self._temp_by_epoch = {}
        self._pending_blocks = set()
        self._dirty_pages = set()
        self._plan_temp_entries = []
        self._plan_pending_entries = []
        self._plan_pages = []
        self._plan_counts = {}
        self._planned_stages = []
        self._boundary_gate = None
        self._blocked_page_writes = []
        self._backpressure_active = False
        self._gc_issued = []
        self._absorbed_to_drop = []
        self._migration_unserviced = 0
        self.coordinator = SchemeCoordinator(self.config.promote_threshold,
                                             self.config.demote_threshold)
        self._power_on(epoch)
        # Timed restore traffic (page copies) — recovery's latency is
        # reported on the RecoveredState; here we only account traffic.
        for page, (region, slot) in meta.page_regions.items():
            base = self.layout.region_page_addr(region, page)
            slot_base = self.layout.page_slot_addr(slot)
            for offset in range(self.config.blocks_per_page):
                step = offset * self.config.block_bytes
                self._issue_fire_and_forget(DeviceKind.NVM, base + step,
                                            False, Origin.RECOVERY)
                self._issue_fire_and_forget(DeviceKind.DRAM,
                                            slot_base + step, True,
                                            Origin.RECOVERY)

    # ------------------------------------------------------------------
    # Functional introspection (tests, examples)
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check cross-structure invariants (tests call this liberally).

        Raises :class:`ProtocolError` on any violation:
        * every temp/pending index entry matches live BTT state,
        * temps belong only to the active or in-flight-checkpoint epoch,
        * PTT pages occupy distinct, allocated DRAM slots,
        * coop entries reference live PTT pages,
        * dirty-page index entries are PTT-resident,
        * no BTT entry turned idle behind a live eviction cursor.
        """
        active = self.epochs.active_epoch
        ckpt = self.epochs.ckpt_epoch
        for epoch, blocks in self._temp_by_epoch.items():
            if not blocks:
                continue
            if epoch not in (active, ckpt):
                raise ProtocolError(
                    f"temp index holds stale epoch {epoch} "
                    f"(active={active}, ckpt={ckpt})")
            for block in blocks:
                entry = self.btt.lookup(block)
                if entry is None or epoch not in entry.temp_epochs:
                    raise ProtocolError(
                        f"temp index block {block}@{epoch} not in BTT")
        for block, entry in self.btt:
            if entry.block != block:
                raise ProtocolError(f"BTT key/entry mismatch at {block}")
            for epoch in sorted(entry.temp_epochs):
                if epoch == ckpt:
                    # The planner consumed this epoch's index slice; the
                    # entry keeps the temp mark until the commit clears it
                    # (that mark is what DRAM_CHECKPOINTING derives from).
                    continue
                if block not in self._temp_by_epoch.get(epoch, ()):
                    raise ProtocolError(
                        f"BTT temp {block}@{epoch} missing from index")
            if entry.pending_epoch is not None and entry.temp_epochs:
                if entry.pending_epoch in entry.temp_epochs:
                    raise ProtocolError(
                        f"block {block}: same-epoch pending AND temp")
            if entry.coop_page is not None:
                if self.ptt.lookup(entry.coop_page) is None:
                    raise ProtocolError(
                        f"coop entry {block} for untracked page "
                        f"{entry.coop_page}")
        self._validate_evict_candidates()
        slots = {}
        for page, pe in self.ptt:
            if pe.page != page:
                raise ProtocolError(f"PTT key/entry mismatch at {page}")
            if pe.dram_slot in slots:
                raise ProtocolError(
                    f"pages {slots[pe.dram_slot]} and {page} share DRAM "
                    f"slot {pe.dram_slot}")
            slots[pe.dram_slot] = page
        for page in sorted(self._dirty_pages):
            pe = self.ptt.lookup(page)
            if pe is None:
                raise ProtocolError(f"dirty-page index has untracked {page}")

    def _validate_evict_candidates(self) -> None:
        """Emergency eviction never looks back at what its cursors
        passed, which picks the linear scan's victim only while no entry
        turns idle between two commits."""
        candidates = self._evict_candidates
        if candidates is None:
            return
        ahead = {entry.block: entry
                 for entry in candidates[self._evict_any_cursor:]}
        for block, entry in self.btt:
            if entry.is_idle and ahead.get(block) is not entry:
                raise ProtocolError(
                    f"block {block}: idle BTT entry missing from the "
                    f"eviction candidates")
        for entry in candidates[:self._evict_home_cursor]:
            if (entry.stable_region == REGION_B and entry.is_idle
                    and self.btt.get(entry.block) is entry):
                raise ProtocolError(
                    f"block {entry.block}: idle home-region entry behind "
                    f"the eviction cursor")

    def metadata_bytes_in_use(self) -> int:
        """Current translation-table storage footprint (Table 1 metric)."""
        return (len(self.btt) * self.btt.entry_bytes
                + len(self.ptt) * self.ptt.entry_bytes)
