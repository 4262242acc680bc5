"""Bounded translation tables (the hardware SRAM structures).

Both the BTT and the PTT are fixed-capacity maps held in the memory
controller.  Overflow is not handled here: :meth:`TranslationTable.insert`
returns ``False`` when full and the ThyNVM controller reacts by forcing
an early epoch end so garbage collection can free entries (§4.3).

The table also tracks which entries changed since the last checkpoint,
because only modified entries are persisted to the backup region.  The
paper persists whole tables; this dirty-delta persist is a deliberate
deviation with no toggle (docs/PROTOCOL.md §8).
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, Optional, Set, Tuple, TypeVar

EntryT = TypeVar("EntryT")


class TranslationTable(Generic[EntryT]):
    """Fixed-capacity index -> entry map with dirty tracking."""

    def __init__(self, name: str, capacity: int, entry_bytes: int) -> None:
        self.name = name
        self.capacity = capacity
        self.entry_bytes = entry_bytes
        self._entries: Dict[int, EntryT] = {}
        self._dirty: Set[int] = set()
        self.peak_occupancy = 0
        self.insert_failures = 0

    # --- access ----------------------------------------------------------

    def get(self, index: int) -> Optional[EntryT]:
        return self._entries.get(index)

    def __contains__(self, index: int) -> bool:
        return index in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[int, EntryT]]:
        return iter(self._entries.items())

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def free_entries(self) -> int:
        return self.capacity - len(self._entries)

    # --- mutation ---------------------------------------------------------------

    def insert(self, index: int, entry: EntryT) -> bool:
        """Add an entry; returns False (and counts a failure) when full."""
        if index in self._entries:
            self._entries[index] = entry
            self._dirty.add(index)
            return True
        if self.full:
            self.insert_failures += 1
            return False
        self._entries[index] = entry
        self._dirty.add(index)
        if len(self._entries) > self.peak_occupancy:
            self.peak_occupancy = len(self._entries)
        return True

    def mark_dirty(self, index: int) -> None:
        """Record that an entry changed since the last table checkpoint."""
        if index in self._entries:
            self._dirty.add(index)

    def remove(self, index: int) -> Optional[EntryT]:
        entry = self._entries.pop(index, None)
        if entry is not None:
            self._dirty.add(index)   # removal must be persisted too
        return entry

    # --- checkpointing support ----------------------------------------------------

    def dirty_count(self) -> int:
        return len(self._dirty)

    def persist_bytes(self) -> int:
        """Bytes that must be written to persist the table's changes."""
        return len(self._dirty) * self.entry_bytes

    def clear_dirty(self) -> None:
        self._dirty.clear()

    # --- snapshots (functional recovery) --------------------------------------------

    def snapshot(self) -> Dict[int, EntryT]:
        """Shallow copy of the live map — callers must copy entries they
        intend to keep immutable (the controller snapshots reduced,
        immutable views instead; see recovery.py)."""
        return dict(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TranslationTable {self.name} {len(self._entries)}"
                f"/{self.capacity}>")
