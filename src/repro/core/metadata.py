"""BTT and PTT entry structures (Figure 5 of the paper).

The paper packs each entry into a handful of bits: a physical index, a
Version ID, a Visible Memory Region ID, a Checkpoint Region ID and a
store counter.  We keep semantically equivalent — but more explicit —
fields, and :mod:`repro.core.versions` maps them back onto the paper's
compressed state encoding for validation.

Key fields of a :class:`BlockEntry` (block remapping scheme):

* ``stable_region`` — which checkpoint region (A/B) holds ``C_last``,
  the last *committed* checkpoint copy.
* ``pending_epoch`` — if not ``None``, the complement region holds a
  newer working copy, written directly in NVM during that epoch
  (legal only while no checkpoint was in flight).
* ``temp_epochs`` — epochs that have a working copy in a DRAM
  temporary slot (at most two: the epoch under checkpoint and the
  active epoch).

A :class:`PageEntry` (page writeback scheme) always has its working
copy in a DRAM page slot; ``stable_region`` names the NVM region with
the page's last committed checkpoint.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Set


class GcState(enum.Enum):
    """Garbage-collection / consolidation progress of a table entry."""

    NONE = "none"          # live entry, not being consolidated
    QUEUED = "queued"      # selected for consolidation-to-home
    ISSUED = "issued"      # consolidation copy writes are in flight


@dataclass
class BlockEntry:
    """One BTT entry: a physical block managed by block remapping."""

    block: int
    stable_region: int                  # region of C_last (committed)
    pending_epoch: Optional[int] = None  # working copy in complement region
    temp_epochs: Set[int] = field(default_factory=set)
    store_count: int = 0                # stores this epoch (6-bit counter)
    last_write_epoch: int = -1
    gc_state: GcState = GcState.NONE
    # Set when this entry only buffers writes for a PTT-managed page
    # whose checkpoint is in flight (the §3.4 cooperation path).
    coop_page: Optional[int] = None
    # Set when the block's page was promoted to page writeback; the
    # entry stays (inert) until the next commit makes the PTT entry
    # durable, then it is dropped.
    absorbed_by_page: bool = False

    @property
    def is_idle(self) -> bool:
        """Only C_last is live: no working copy, no consolidation in
        flight, no §3.4 cooperation and no page absorption, so the
        entry may be freed (after moving C_last home if need be)."""
        return (self.pending_epoch is None and not self.temp_epochs
                and self.gc_state is GcState.NONE
                and self.coop_page is None
                and not self.absorbed_by_page)

    def newest_temp_epoch(self) -> Optional[int]:
        return max(self.temp_epochs) if self.temp_epochs else None

    def bump_store(self, epoch: int) -> None:
        # 6-bit saturating counter, per Figure 5.
        if self.store_count < 63:
            self.store_count += 1
        self.last_write_epoch = epoch


@dataclass
class PageEntry:
    """One PTT entry: a physical page managed by page writeback."""

    page: int
    dram_slot: int                      # Working Data Region slot index
    stable_region: int                  # region of the page's C_last
    dirty_active: Set[int] = field(default_factory=set)   # block offsets
    dirty_ckpt: Set[int] = field(default_factory=set)     # being written back
    ckpt_in_progress: bool = False
    store_count: int = 0
    last_write_epoch: int = -1
    gc_state: GcState = GcState.NONE    # used for demotion-to-home
    demote_requested: bool = False
    cold_commits: int = 0               # consecutive below-threshold epochs

    @property
    def is_dirty(self) -> bool:
        return bool(self.dirty_active) or bool(self.dirty_ckpt)

    def bump_store(self, epoch: int) -> None:
        if self.store_count < 63:
            self.store_count += 1
        self.last_write_epoch = epoch
