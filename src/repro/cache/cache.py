"""One level of set-associative, writeback cache.

Tracks (tag, dirty) per set in LRU order: each set is an
``OrderedDict`` with the least-recently-used tag first, so a touch is
``move_to_end`` and the eviction victim is the first entry.  Payloads
are not stored — see the package docstring.  The interesting
operation for ThyNVM is :meth:`clean_dirty_blocks`, which implements
CLWB-style "writeback without invalidate" used by the epoch-boundary
flush (§4.4): dirty blocks are returned for writeback and marked clean,
but stay resident to preserve locality.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..config import CacheConfig


class Cache:
    """A single cache level."""

    def __init__(self, name: str, config: CacheConfig) -> None:
        self.name = name
        self.config = config
        self._num_sets = config.num_sets
        self._block_shift = config.block_bytes.bit_length() - 1
        # set index -> OrderedDict[tag, dirty]
        self._sets: Dict[int, "OrderedDict[int, bool]"] = {}
        self.hits = 0
        self.misses = 0
        self.dirty_count = 0   # O(1) dirty tracking (Dirty-Block-Index-like)
        # set index -> dirty blocks in that set.  The epoch flush walks
        # only sets with a non-zero count (in unchanged set order), so
        # its cost scales with the dirty footprint, not the cache size.
        self._set_dirty: Dict[int, int] = {}

    # --- geometry helpers -----------------------------------------------

    def _locate(self, block_addr: int) -> Tuple[int, int]:
        block = block_addr >> self._block_shift
        return block % self._num_sets, block // self._num_sets

    def _rebuild_addr(self, set_index: int, tag: int) -> int:
        return ((tag * self._num_sets) + set_index) << self._block_shift

    # --- operations -------------------------------------------------------

    def lookup(self, block_addr: int, dirty: bool = False,
               touch: bool = True) -> bool:
        """True on hit.  ``dirty`` sets a hit block's dirty bit (a store
        hit, in the set just found); ``touch`` updates recency."""
        block = block_addr >> self._block_shift
        num_sets = self._num_sets
        entries = self._sets.get(block % num_sets)
        tag = block // num_sets
        if entries is None or tag not in entries:
            self.misses += 1
            return False
        if touch:
            entries.move_to_end(tag)
        if dirty and not entries[tag]:
            entries[tag] = True
            self.dirty_count += 1
            set_index = block % num_sets
            self._set_dirty[set_index] = self._set_dirty.get(set_index, 0) + 1
        self.hits += 1
        return True

    def mark_dirty(self, block_addr: int) -> None:
        """Set the dirty bit of a resident block (store hit)."""
        set_index, tag = self._locate(block_addr)
        entries = self._sets.get(set_index)
        if entries is not None and tag in entries:
            if not entries[tag]:
                self.dirty_count += 1
                self._set_dirty[set_index] = \
                    self._set_dirty.get(set_index, 0) + 1
            entries[tag] = True
            entries.move_to_end(tag)

    def insert(self, block_addr: int, dirty: bool) -> Optional[Tuple[int, bool]]:
        """Fill a block.  Returns the evicted ``(block_addr, dirty)``, if any.

        Inserting an already-resident block just ORs in the dirty bit.
        """
        set_index, tag = self._locate(block_addr)
        entries = self._sets.setdefault(set_index, OrderedDict())
        if tag in entries:
            if dirty and not entries[tag]:
                self.dirty_count += 1
                self._set_dirty[set_index] = \
                    self._set_dirty.get(set_index, 0) + 1
            entries[tag] = entries[tag] or dirty
            entries.move_to_end(tag)
            return None
        victim = None
        if len(entries) >= self.config.ways:
            victim_tag, victim_dirty = entries.popitem(last=False)
            if victim_dirty:
                self.dirty_count -= 1
                self._set_dirty[set_index] -= 1
            victim = (self._rebuild_addr(set_index, victim_tag), victim_dirty)
        entries[tag] = dirty
        if dirty:
            self.dirty_count += 1
            self._set_dirty[set_index] = self._set_dirty.get(set_index, 0) + 1
        return victim

    def invalidate(self, block_addr: int) -> bool:
        """Drop a block; returns whether it was present and dirty."""
        set_index, tag = self._locate(block_addr)
        entries = self._sets.get(set_index)
        if entries is None or tag not in entries:
            return False
        dirty = entries.pop(tag)
        if dirty:
            self.dirty_count -= 1
            self._set_dirty[set_index] -= 1
        return dirty

    def clean_dirty_blocks(self) -> List[int]:
        """Return all dirty block addresses and clear their dirty bits.

        Blocks remain resident (writeback-without-invalidate, like
        Intel's CLWB), preserving locality for the next epoch.
        """
        cleaned: List[int] = []
        if not self.dirty_count:
            return cleaned
        set_dirty = self._set_dirty
        num_sets = self._num_sets
        shift = self._block_shift
        # Set iteration order (hence writeback order) is identical to
        # the full scan's: _sets insertion order, filtered.
        for set_index, entries in self._sets.items():
            if not set_dirty.get(set_index):
                continue
            remaining = set_dirty[set_index]
            for tag, dirty in entries.items():
                if dirty:
                    cleaned.append(((tag * num_sets) + set_index) << shift)
                    entries[tag] = False
                    remaining -= 1
                    if not remaining:
                        break
            set_dirty[set_index] = 0
        self.dirty_count = 0
        return cleaned

    def invalidate_all(self) -> None:
        """Drop everything (simulated power loss)."""
        self._sets.clear()
        self.dirty_count = 0
        self._set_dirty.clear()

    @property
    def resident_blocks(self) -> int:
        return sum(len(entries) for entries in self._sets.values())

    def dirty_block_count(self) -> int:
        return self.dirty_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Cache {self.name} {self.config.size_bytes}B "
                f"{self.config.ways}-way resident={self.resident_blocks}>")
