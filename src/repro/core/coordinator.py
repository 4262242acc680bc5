"""Coordination between the two checkpointing schemes (§3.4, §4.2).

The coordinator watches per-page store counters during each epoch and,
at every commit, decides which pages switch schemes:

* a page whose epoch store count reached ``promote_threshold`` (22 in
  the paper) moves from block remapping to page writeback,
* a PTT page whose count fell below ``demote_threshold`` (16) moves
  back to block remapping,
* BTT entries idle for two epochs become garbage-collection candidates
  so their data can be consolidated into the Home Region and the entry
  freed.

Only the *selection* happens here; the controller executes the data
movement (which is what costs NVM bandwidth and shows up as Migration
traffic in Figure 8).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from .btt import BlockTranslationTable
from .metadata import BlockEntry, GcState, PageEntry
from .ptt import PageTranslationTable
from .regions import REGION_B


class SchemeCoordinator:
    """Store-locality tracking and scheme-switch selection."""

    def __init__(self, promote_threshold: int, demote_threshold: int,
                 gc_idle_epochs: int = 2, gc_per_commit: int = 128,
                 demote_hysteresis: int = 3) -> None:
        self.promote_threshold = promote_threshold
        self.demote_threshold = demote_threshold
        self.gc_idle_epochs = gc_idle_epochs
        self.gc_per_commit = gc_per_commit
        # A page must stay below the demote threshold for this many
        # consecutive epochs before it migrates back to block remapping:
        # demoting (and later re-promoting) a page costs two full-page
        # migrations, so one cold epoch must not trigger it.
        self.demote_hysteresis = demote_hysteresis
        self.promote_per_commit = 8
        # Stores per physical page in the current epoch (covers both
        # BTT-managed blocks, aggregated by page, and PTT pages).
        self._page_stores: Dict[int, int] = defaultdict(int)

    # --- during execution ---------------------------------------------------

    def note_store(self, page: int) -> None:
        self._page_stores[page] += 1

    def epoch_rollover(self) -> Dict[int, int]:
        """Return and reset the per-page store counts of the ended epoch."""
        counts = dict(self._page_stores)
        self._page_stores.clear()
        return counts

    # --- selection at commit ----------------------------------------------------

    def select_promotions(
        self,
        counts: Dict[int, int],
        ptt: PageTranslationTable,
        slots_free: int,
    ) -> List[int]:
        """Pages to adopt into page writeback, hottest first."""
        candidates = [
            (count, page) for page, count in counts.items()
            if count >= self.promote_threshold and page not in ptt
        ]
        candidates.sort(reverse=True)
        # Bound the per-commit migration burst: each adoption costs a
        # full page of reads and writes, and a large batch would crowd
        # out demand traffic at the start of the epoch.
        budget = min(slots_free, ptt.free_entries, self.promote_per_commit)
        return [page for _count, page in candidates[:budget]]

    def select_demotions(
        self,
        counts: Dict[int, int],
        ptt: PageTranslationTable,
    ) -> List[PageEntry]:
        """PTT pages to return to block remapping.

        Only pages with no un-checkpointed dirty data can start
        demoting; dirty ones are reconsidered at the next commit.
        """
        selected: List[PageEntry] = []
        for page, entry in ptt:
            if entry.demote_requested or entry.gc_state is not GcState.NONE:
                continue
            if counts.get(page, 0) >= self.demote_threshold:
                entry.cold_commits = 0
                continue
            entry.cold_commits += 1
            if entry.cold_commits < self.demote_hysteresis:
                continue
            if entry.is_dirty or entry.ckpt_in_progress:
                continue
            selected.append(entry)
        return selected

    def select_gc(
        self,
        btt: BlockTranslationTable,
        committed_epoch: int,
    ) -> List[BlockEntry]:
        """Idle BTT entries whose data can be consolidated to home."""
        selected: List[BlockEntry] = []
        for _block, entry in btt:
            if len(selected) >= self.gc_per_commit:
                break
            if not entry.is_idle:
                continue
            if entry.last_write_epoch > committed_epoch - self.gc_idle_epochs:
                continue
            selected.append(entry)
        return selected

    @staticmethod
    def instant_removals(entries: List[BlockEntry]) -> List[BlockEntry]:
        """GC candidates whose C_last already lives in the Home Region —
        they can be dropped without any data movement."""
        return [e for e in entries if e.stable_region == REGION_B]
