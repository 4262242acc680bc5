"""Shadow paging (copy-on-write) baseline (§5.1, following [6]).

Pages are copied on first write into DRAM buffer pages; dirty pages are
flushed whole to alternate NVM page slots (never overwriting the
previous committed copy) at each epoch boundary — and mid-epoch when
the DRAM buffer fills, which is exactly the behaviour that makes shadow
paging pathological under sparse random writes: a page with one dirty
block still costs a full-page NVM write plus the initial full-page copy.

A per-page region bit (A/B ping-pong, like ThyNVM's checkpoint regions)
provides the "shadow" indirection; the committed region map plays the
role of the shadow page table and flips atomically at each commit,
when it is written as the controller's recovery record.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..config import SystemConfig
from ..core import probes
from ..core.checkpoint import Dest, Job
from ..core.recovery import MetaSnapshot
from ..core.regions import REGION_B
from ..mem.controller import DeviceKind, MemoryController
from ..sim.engine import Engine
from ..sim.request import Origin
from ..stats.collector import StatsCollector
from .base import StopTheWorldController

#: The checkpoint plan, in stage order: the CPU state, then every dirty
#: buffer page to the complement of its committed region.
CHECKPOINT_PLAN = (
    ("cpu", Dest.BACKUP),
    ("page", Dest.COMPLEMENT),
)


class ShadowPagingController(StopTheWorldController):
    """Copy-on-write shadow paging with a DRAM page buffer."""

    #: The declared plan the planners walk.
    PLAN = CHECKPOINT_PLAN

    def __init__(self, engine: Engine, config: SystemConfig,
                 memctrl: MemoryController, stats: StatsCollector) -> None:
        super().__init__(engine, config, memctrl, stats)
        self._pages: Dict[int, int] = {}        # page -> DRAM slot
        self._dirty: Set[int] = set()
        self._page_region: Dict[int, int] = {}  # committed region per page
        self._flush_plan: List[Tuple[int, int, int]] = []  # (page, slot, dst)

    # --- steering ---------------------------------------------------------

    def _committed_region(self, page: int) -> int:
        return self._page_region.get(page, REGION_B)

    def _read_location(self, block: int) -> Tuple[DeviceKind, int]:
        page = self.addresses.page_of_block(block)
        slot = self._pages.get(page)
        if slot is not None:
            offset = block - self.addresses.blocks_in_page(page).start
            return DeviceKind.DRAM, self.layout.slot_block_addr(slot, offset)
        region = self._committed_region(page)
        base = self.layout.region_page_addr(region, page)
        offset = block - self.addresses.blocks_in_page(page).start
        return DeviceKind.NVM, base + offset * self.config.block_bytes

    def _do_write(self, block: int, addr: int, origin: Origin,
                  data, callback, on_accept=None) -> None:
        page = self.addresses.page_of_block(block)
        slot = self._pages.get(page)
        if slot is None:
            slot = self._copy_on_write(page)
            if slot is None:
                self._handle_buffer_full(addr, origin, data, callback,
                                         on_accept, "dram_full")
                return
        self._dirty.add(page)
        offset = block - self.addresses.blocks_in_page(page).start
        hw_addr = self.layout.slot_block_addr(slot, offset)
        self._issue_write(DeviceKind.DRAM, hw_addr, origin, data, callback,
                          on_accept)

    def _copy_on_write(self, page: int) -> Optional[int]:
        """Allocate a buffer page and copy its committed image from NVM.

        Returns the slot, or ``None`` when the buffer is exhausted.
        The copy is functional-immediate with asynchronous timed traffic
        (one NVM read + one DRAM write per block — the CoW cost).
        """
        slot = self.layout.allocate_slot()
        if slot is None and self._evict_clean_page():
            slot = self.layout.allocate_slot()
        if slot is None:
            return None
        self._pages[page] = slot
        region = self._committed_region(page)
        src_base = self.layout.region_page_addr(region, page)
        dst_base = self.layout.page_slot_addr(slot)
        nvm = self.memctrl.functional_store(DeviceKind.NVM)
        dram = self.memctrl.functional_store(DeviceKind.DRAM)
        blocks = self.config.blocks_per_page
        block_bytes = self.config.block_bytes
        # Functional copy now; timed traffic as payload-free bulk runs
        # (one request per page, serviced and timed block by block —
        # docs/PERFORMANCE.md) so a late-serviced copy can never clobber
        # a younger demand write to the same slot.  One run splice per
        # page, not one store call per block (docs/PERSISTENCE.md).
        dram.write_run(dst_base, blocks, nvm.read_run(src_base, blocks))
        self._issue_bulk_read_traffic(DeviceKind.NVM, src_base,
                                      Origin.MIGRATION, blocks, block_bytes)
        self._issue_bulk_write_traffic(DeviceKind.DRAM, dst_base,
                                       Origin.MIGRATION, blocks, block_bytes)
        if self.layout.slots_free < self.layout.slots_total // 8:
            self.epochs.request_end("dram_full")
        return slot

    def _evict_clean_page(self) -> bool:
        """Drop one clean buffered page (its data is already in NVM)."""
        for page, slot in list(self._pages.items()):
            if page not in self._dirty:
                del self._pages[page]
                self.layout.release_slot(slot)
                return True
        return False

    def _dirty_pressure_threshold(self) -> int:
        return (7 * self.layout.slots_total
                * self.config.blocks_per_page) // 10

    # --- checkpointing --------------------------------------------------------------

    def _checkpoint_stages(self) -> List[List[Job]]:
        self._flush_plan = []
        stages = super()._checkpoint_stages()
        if self._flush_plan:
            probes.notify("table-persist", "pagemap")
        return stages

    def _stage_jobs(self, role: str, dest: Dest) -> List[Job]:
        jobs: List[Job] = []
        for page in sorted(self._dirty):
            slot = self._pages[page]
            dst_region = dest.region(self._committed_region(page))
            self._flush_plan.append((page, slot, dst_region))
            src_base = self.layout.page_slot_addr(slot)
            dst_base = self.layout.region_page_addr(dst_region, page)
            jobs.append(Job(dst_kind=DeviceKind.NVM,
                            dst_addr=dst_base,
                            origin=Origin.CHECKPOINT,
                            src_kind=DeviceKind.DRAM,
                            src_addr=src_base,
                            count=self.config.blocks_per_page,
                            stride=self.config.block_bytes))
        return jobs

    def _commit_actions(self) -> None:
        for page, _slot, dst_region in self._flush_plan:
            self._page_region[page] = dst_region
        self._dirty.clear()
        self._flush_plan = []
        # The page map is a page table to region B == Home.  Shadow
        # pages have no DRAM working copy for recovery to restore, so
        # every entry carries slot 0.
        self._write_record(MetaSnapshot(
            epoch=self.epochs.active_epoch,
            page_regions={page: (region, 0)
                          for page, region in self._page_region.items()}))
