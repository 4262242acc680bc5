"""Three-level cache hierarchy in front of a memory system port.

Timing follows Table 2: a hit at level *N* costs the sum of hit
latencies down to that level; a full miss additionally waits for the
memory system.  Writebacks cascade: a dirty victim moves one level
down, and dirty L3 victims become memory writes.  The hierarchy also
implements the epoch-boundary flush ThyNVM's checkpointing needs
(writeback-without-invalidate of every dirty block).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

from ..config import SystemConfig
from ..port import MemoryPort
from ..sim.engine import Engine
from ..sim.request import MemoryRequest, Origin
from ..stats.collector import StatsCollector
from .cache import Cache


class CacheHierarchy:
    """L1 + L2 + L3 writeback caches over a :class:`MemoryPort`."""

    def __init__(self, engine: Engine, config: SystemConfig,
                 port: MemoryPort, stats: StatsCollector,
                 shared_l3: Optional[Cache] = None) -> None:
        self.engine = engine
        self.config = config
        self.port = port
        self.stats = stats
        self.l1 = Cache("L1", config.l1)
        self.l2 = Cache("L2", config.l2)
        # Multi-core machines share the LLC (Table 2: "2MB/core").
        self.l3 = shared_l3 if shared_l3 is not None else Cache("L3",
                                                                config.l3)
        self._levels = [self.l1, self.l2, self.l3]
        # The live hit counters: a dict increment per hit, no call.
        self._hits = stats.cache_hits.raw_counts()
        self._pressure_threshold: Optional[int] = None
        self._pressure_callback: Optional[Callable[[], None]] = None

    # --- demand path ---------------------------------------------------

    def set_dirty_pressure(self, threshold: int,
                           callback: Callable[[], None]) -> None:
        """Invoke ``callback`` whenever a store pushes the cache's dirty
        block count to ``threshold`` or beyond.

        This models Dirty-Block-Index-style tracking (the paper's [68]):
        the consistency controller ends the epoch early so the boundary
        flush never dirties more blocks than its translation tables can
        absorb.
        """
        self._pressure_threshold = threshold
        self._pressure_callback = callback

    def _check_pressure(self) -> None:
        if (self._pressure_threshold is not None
                and self.dirty_block_count() >= self._pressure_threshold):
            self._pressure_callback()

    def access(self, block_addr: int, is_write: bool,
               on_done: Callable[[], None]) -> Optional[int]:
        """One block-sized load or store.

        A hit returns its latency: the caller's access completes that
        many cycles from now, and ``on_done`` is not called.  A miss
        returns None and calls ``on_done`` once the fill completes.
        """
        if is_write:
            self._check_pressure()
        cfg = self.config
        if self.l1.lookup(block_addr, is_write):
            self._hits["L1"] += 1
            return cfg.l1.hit_latency
        if self.l2.lookup(block_addr):
            self._hits["L2"] += 1
            self._fill(block_addr, into_l2=False, dirty=is_write)
            return cfg.l1.hit_latency + cfg.l2.hit_latency
        if self.l3.lookup(block_addr):
            self._hits["L3"] += 1
            self._fill(block_addr, into_l2=True, dirty=is_write)
            return (cfg.l1.hit_latency + cfg.l2.hit_latency
                    + cfg.l3.hit_latency)

        self.stats.cache_misses.add("LLC")
        lookup_latency = (cfg.l1.hit_latency + cfg.l2.hit_latency
                          + cfg.l3.hit_latency)
        self.engine.schedule(lookup_latency, self._issue_miss, block_addr,
                             is_write, on_done)
        return None

    def _issue_miss(self, block_addr: int, is_write: bool,
                    on_done: Callable[[], None]) -> None:
        """The LLC miss's memory read, once the lookups have taken
        their cycles."""
        self.port.read_block(block_addr, Origin.CPU,
                             partial(self._miss_fill, block_addr, is_write,
                                     on_done))

    def _miss_fill(self, block_addr: int, is_write: bool,
                   on_done: Callable[[], None],
                   _request: MemoryRequest) -> None:
        self._insert_level(self.l3, block_addr, dirty=False)
        self._fill(block_addr, into_l2=True, dirty=is_write)
        on_done()

    def _fill(self, block_addr: int, into_l2: bool, dirty: bool) -> None:
        """Bring a block into L1 (and optionally L2), handling victims."""
        if into_l2:
            self._insert_level(self.l2, block_addr, dirty=False)
        self._insert_level(self.l1, block_addr, dirty=dirty)

    def _insert_level(self, cache: Cache, block_addr: int, dirty: bool) -> None:
        victim = cache.insert(block_addr, dirty)
        if victim is None:
            return
        victim_addr, victim_dirty = victim
        if not victim_dirty:
            return
        if cache is self.l1:
            self._insert_level(self.l2, victim_addr, dirty=True)
        elif cache is self.l2:
            self._insert_level(self.l3, victim_addr, dirty=True)
        else:
            self.port.write_block(victim_addr, Origin.CPU)

    # --- epoch-boundary flush -------------------------------------------

    def dirty_block_addresses(self) -> List[int]:
        """Union of dirty blocks across levels (each flushed once)."""
        dirty: set[int] = set()
        for level in self._levels:
            dirty.update(level.clean_dirty_blocks())
        return sorted(dirty)

    def flush_dirty(self, origin: Origin,
                    on_accepted: Callable[[int], None],
                    on_initiated: Optional[Callable[[int], None]] = None,
                    ) -> None:
        """Write back every dirty block, keeping them resident (§4.4).

        Two completion signals, matching the paper's split between the
        CPU stall and the background checkpointing phase:

        * ``on_initiated(n)`` — the cache has *issued* all writebacks
          (CLWB-style).  This costs roughly one cycle per dirty block
          while the core is stalled; ThyNVM resumes execution here.
        * ``on_accepted(n)`` — every writeback has been accepted into a
          memory-controller queue, so the checkpoint's commit fence is
          guaranteed to cover them.  The checkpointing phase starts here.

        Durability itself is enforced by the NVM write-queue fence that
        precedes the commit record; read-after-write forwarding keeps
        still-queued flush data visible to checkpoint copies."""
        dirty = self.dirty_block_addresses()
        if not dirty:
            if on_initiated is not None:
                on_initiated(0)
            on_accepted(0)
            return
        remaining = len(dirty)

        def one_accepted() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                on_accepted(len(dirty))

        for addr in dirty:
            self.port.write_block(addr, origin, on_accept=one_accepted)
        if on_initiated is not None:
            scan_cycles = max(10, len(dirty))
            self.engine.schedule(scan_cycles, on_initiated, len(dirty))

    def dirty_block_count(self) -> int:
        # On a multi-core machine l3 is the shared LLC, so every core's
        # count includes it (the cluster counts it once).
        return self.l1.dirty_count + self.l2.dirty_count + self.l3.dirty_count

    def invalidate_all(self) -> None:
        """Lose all cached state (simulated power failure)."""
        for level in self._levels:
            level.invalidate_all()
