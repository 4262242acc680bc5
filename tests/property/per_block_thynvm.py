"""Per-block ThyNVM page copies: the oracle for ThyNVM's page runs.

``ThyNVMController`` issues every page copy's timed traffic as bulk
runs (docs/PERFORMANCE.md, "ThyNVM page runs"): a page checkpoint is
one copy job of ``blocks_per_page`` blocks, a page assembly is one NVM
read run per same-region stretch plus one DRAM write run over the
slot, and an emergency page eviction is one data-carrying NVM write
run.  The runs are serviced block by block, so timing must equal the
per-block request storm they replaced.  :class:`PerBlockThyNVM` is that
storm: its three page-copy methods issue one request, or one
single-block copy job, per block, in block order.  Tests swap it in for
the shipped class with::

    monkeypatch.setattr(repro.harness.systems, "ThyNVMController",
                        PerBlockThyNVM)

which reaches both ``build_system`` and the fuzz ``census`` through
``build_controller``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.checkpoint import Dest, Job
from repro.core.controller import ThyNVMController
from repro.core.metadata import GcState, PageEntry
from repro.core.regions import REGION_A, REGION_B
from repro.errors import ProtocolError
from repro.mem.controller import DeviceKind
from repro.sim.request import Origin


class PerBlockThyNVM(ThyNVMController):
    """ThyNVM that issues every page copy one block at a time."""

    def _page_writeback_jobs(self, pages: List[PageEntry],
                             dest: Dest) -> List[Job]:
        layout = self.layout
        block_bytes = self.config.block_bytes
        jobs: List[Job] = []
        for pe in pages:
            pe.dirty_ckpt = pe.dirty_active
            pe.dirty_active = set()
            pe.ckpt_in_progress = True
            dst_base = layout.region_page_addr(dest.region(pe.stable_region),
                                               pe.page)
            src_base = layout.page_slot_addr(pe.dram_slot)
            for offset in range(self.config.blocks_per_page):
                jobs.append(Job(
                    dst_kind=DeviceKind.NVM,
                    dst_addr=dst_base + offset * block_bytes,
                    origin=Origin.CHECKPOINT,
                    src_kind=DeviceKind.DRAM,
                    src_addr=src_base + offset * block_bytes,
                ))
        return jobs

    def _emergency_evict_page(self) -> bool:
        fallback: Optional[PageEntry] = None
        for page, pe in self.ptt:
            if pe.is_dirty or pe.ckpt_in_progress:
                continue
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
        block_bytes = self.config.block_bytes
        payload = dram.read_run(src_base, blocks)
        nvm.write_run(dst_base, blocks, payload)
        for offset in range(blocks):
            step = offset * block_bytes
            self._issue_fire_and_forget(
                DeviceKind.NVM, dst_base + step, True, Origin.MIGRATION,
                data=payload[step:step + block_bytes])
        self._evicted_pages[pe.page] = (REGION_A, 2)
        self.ptt.remove(pe.page)
        self.layout.release_slot(pe.dram_slot)
        return True

    def _assemble_page(self, pe: PageEntry) -> None:
        layout = self.layout
        dram = self.memctrl.functional_store(DeviceKind.DRAM)
        nvm = self.memctrl.functional_store(DeviceKind.NVM)
        first_block = self.addresses.blocks_in_page(pe.page).start
        active = self.epochs.active_epoch
        for offset in range(self.config.blocks_per_page):
            block = first_block + offset
            slot_addr = layout.slot_block_addr(pe.dram_slot, offset)
            entry = self.btt.lookup(block)
            if entry is not None and entry.temp_epochs:
                epoch = entry.newest_temp_epoch()
                temp_addr = layout.temp_block_addr(block, epoch)
                dram.copy_block(temp_addr, slot_addr)
                self._issue_fire_and_forget(DeviceKind.DRAM, slot_addr, True,
                                            Origin.MIGRATION)
                pe.dirty_active.add(offset)
                self._dirty_pages.add(pe.page)
                entry.temp_epochs.clear()
                self._temp_by_epoch.get(active, set()).discard(block)
            else:
                if entry is not None and entry.pending_epoch is not None:
                    raise ProtocolError(
                        f"block {block}: pending copy survived commit")
                region = entry.stable_region if entry is not None else REGION_B
                src = layout.region_block_addr(region, block)
                dram.write(slot_addr, nvm.read(src))
                self._issue_fire_and_forget(DeviceKind.NVM, src, False,
                                            Origin.MIGRATION)
                self._issue_fire_and_forget(DeviceKind.DRAM, slot_addr, True,
                                            Origin.MIGRATION)
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
