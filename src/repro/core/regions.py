"""ThyNVM's hardware address-space layout (Figure 4 of the paper).

The memory controller sees a hardware address space larger than the
physical (software-visible) one:

NVM device addresses::

    [0, P)              Checkpoint Region B == Home Region
    [P, 2P)             Checkpoint Region A
    [2P, 2P + backup)   BTT/PTT/CPU-state Backup Region

DRAM device addresses::

    [0, D)              Working Data Region (page slots)
    [D, D + 2P)         Temporary block slots (two per physical block,
                        alternating by epoch parity, used by block
                        remapping while a checkpoint is in flight)

where P = physical bytes, D = DRAM working-region bytes.  Region B
doubles as the Home Region (the paper's space-saving trick): data not
subject to checkpointing lives at its physical offset in region B and
needs no table entry.  Checkpoint copies of a block/page ping-pong
between regions A and B; a one-bit region ID per table entry says where
the last checkpoint lives.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import SystemConfig
from ..errors import SimulationError

REGION_B = 0   # == Home Region
REGION_A = 1


def other_region(region: int) -> int:
    """The complement checkpoint region (A <-> B)."""
    return 1 - region


class HardwareLayout:
    """Address computation for every region, plus DRAM page-slot allocation."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.block_bytes = config.block_bytes
        self.page_bytes = config.page_bytes
        physical = config.physical_bytes

        # NVM map.
        self.region_b_base = 0
        self.region_a_base = physical
        self.backup_base = 2 * physical

        def round_up(n: int) -> int:
            return -(-n // self.block_bytes) * self.block_bytes

        # Backup sub-regions: CPU state, BTT image, PTT image, commit bit.
        self.cpu_backup_offset = 0
        self.btt_backup_offset = round_up(config.cpu_state_bytes)
        self.btt_backup_blocks = max(1, round_up(config.btt_bytes)
                                     // self.block_bytes)
        self.ptt_backup_offset = (self.btt_backup_offset
                                  + self.btt_backup_blocks * self.block_bytes)
        self.ptt_backup_blocks = max(1, round_up(config.ptt_bytes)
                                     // self.block_bytes)
        self.backup_bytes = (self.ptt_backup_offset
                             + self.ptt_backup_blocks * self.block_bytes
                             + self.block_bytes)
        self.nvm_bytes = self.backup_base + self.backup_bytes

        # DRAM map.
        self.working_base = 0
        self.temp_base = config.dram_bytes
        self.dram_bytes = self.temp_base + 2 * physical

        # Working Data Region page slots.
        self._free_slots: List[int] = list(range(config.dram_pages))
        self._free_slots.reverse()   # allocate low slots first
        self.slots_total = config.dram_pages

    # --- NVM addresses -----------------------------------------------------

    def home_block_addr(self, block: int) -> int:
        """Home-region (== Region B) address of a physical block."""
        return self.region_b_base + block * self.block_bytes

    def region_block_addr(self, region: int, block: int) -> int:
        """Checkpoint-region address of a physical block."""
        base = self.region_b_base if region == REGION_B else self.region_a_base
        return base + block * self.block_bytes

    def region_page_addr(self, region: int, page: int) -> int:
        """Checkpoint-region address of a physical page."""
        base = self.region_b_base if region == REGION_B else self.region_a_base
        return base + page * self.page_bytes

    def log_slot_addr(self, slot: int) -> int:
        """Address of redo-journal log slot ``slot`` (journaling keeps
        its log in region A, which it never uses as a checkpoint)."""
        return self.region_a_base + slot * self.block_bytes

    def backup_addr(self, offset: int) -> int:
        """Address inside the BTT/PTT/CPU Backup Region."""
        if not 0 <= offset < self.backup_bytes:
            raise SimulationError(f"backup offset {offset} out of range")
        return self.backup_base + offset

    @property
    def commit_record_addr(self) -> int:
        """The single block whose write atomically commits a checkpoint."""
        return self.backup_base + self.backup_bytes - self.block_bytes

    # --- DRAM addresses ------------------------------------------------------

    def page_slot_addr(self, slot: int) -> int:
        """DRAM address of Working-Data-Region page slot ``slot``."""
        if not 0 <= slot < self.slots_total:
            raise SimulationError(f"page slot {slot} out of range")
        return self.working_base + slot * self.page_bytes

    def slot_block_addr(self, slot: int, block_offset: int) -> int:
        """DRAM address of block ``block_offset`` within a page slot."""
        return self.page_slot_addr(slot) + block_offset * self.block_bytes

    def temp_block_addr(self, block: int, epoch: int) -> int:
        """DRAM address of a temporary block slot.

        Two slots per block, selected by epoch parity, so the slot being
        checkpointed (epoch C) and the slot being written by the active
        epoch (C+1) never collide.
        """
        return self.temp_base + (2 * block + (epoch & 1)) * self.block_bytes

    # --- page-slot allocator ----------------------------------------------------

    @property
    def slots_free(self) -> int:
        return len(self._free_slots)

    def allocate_slot(self) -> Optional[int]:
        """Take a free Working-Data-Region page slot, or None if full."""
        if not self._free_slots:
            return None
        return self._free_slots.pop()

    def release_slot(self, slot: int) -> None:
        """Return a page slot to the free pool."""
        if not 0 <= slot < self.slots_total:
            raise SimulationError(f"releasing invalid page slot {slot}")
        self._free_slots.append(slot)

    def reset_slots(self, in_use) -> None:
        """Rebuild the free pool around a known-allocated set (used when
        resuming after recovery: the recovered PTT dictates occupancy)."""
        in_use = set(in_use)
        for slot in sorted(in_use):
            if not 0 <= slot < self.slots_total:
                raise SimulationError(f"recovered slot {slot} out of range")
        self._free_slots = [slot for slot in range(self.slots_total - 1, -1, -1)
                            if slot not in in_use]
