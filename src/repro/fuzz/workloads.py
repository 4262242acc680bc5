"""Deterministic write schedules for the fuzz campaign.

A fuzz workload is a pure function of ``(name, seed, epochs, blocks,
config)`` producing, per epoch, an ordered list of ``(block, payload)``
writes.  They are driven directly into a controller (no CPU model), so
the only nondeterminism budget is the crash plan itself.

Two shapes:

* ``sparse`` — scattered single-block writes across several pages:
  exercises the block-remapping (BTT) path and, in the baselines, a
  handful of journal slots / shadow pages.
* ``hotpage`` — the sparse pattern plus a fully written hot page each
  epoch: after the first commit the page is promoted, so page
  writeback, cooperation and demotion sites join the crash surface.

Working sets deliberately stay far below every DRAM buffer capacity
(16 page slots in the small test config): capacity-stalled adoptions
and aux (sub-epoch) checkpoints *weaken* atomicity by design, which
would turn every oracle violation into noise.  So no fuzz schedule
reaches the ``aux-commit`` site kind: a plan aimed at it reports
``unreached`` (``tests/fuzz/test_runner.py`` pins that).
"""

from __future__ import annotations

import random
from typing import List, Set, Tuple

from ..config import SystemConfig
from ..errors import WorkloadError

WORKLOAD_NAMES = ("sparse", "hotpage")

#: Pages the scattered writes spread over (handful << buffer capacity).
_SPREAD_PAGES = 6
#: The page the ``hotpage`` shape fully rewrites each epoch.
HOT_PAGE = 2

Schedule = List[List[Tuple[int, bytes]]]


def _payload(seed: int, epoch: int, index: int, block: int,
             block_bytes: int) -> bytes:
    text = f"s{seed}e{epoch}i{index}b{block}".encode()
    return text.ljust(block_bytes, b"\0")


def _universe(blocks: int, per_page: int) -> List[int]:
    """The working set: ``blocks`` block numbers striped over a few
    pages (never filling any page, so no accidental promotions)."""
    universe: List[int] = []
    for index in range(blocks):
        page = index % _SPREAD_PAGES
        offset = index // _SPREAD_PAGES
        if page == HOT_PAGE:
            page = _SPREAD_PAGES          # keep clear of the hot page
        universe.append(page * per_page + offset % per_page)
    return universe


def build_schedule(name: str, seed: int, epochs: int, blocks: int,
                   config: SystemConfig) -> Schedule:
    """The full write schedule for one plan (deterministic)."""
    if name not in WORKLOAD_NAMES:
        raise WorkloadError(f"unknown fuzz workload {name!r} "
                            f"(have: {', '.join(WORKLOAD_NAMES)})")
    per_page = config.blocks_per_page
    universe = _universe(blocks, per_page)
    rng = random.Random(seed * 1_000_003 + epochs * 101 + blocks)
    writes_per_epoch = max(3, min(blocks, 12))
    schedule: Schedule = []
    for epoch in range(epochs):
        writes: List[Tuple[int, bytes]] = []
        for index in range(writes_per_epoch):
            block = universe[rng.randrange(len(universe))]
            writes.append((block, _payload(seed, epoch, index, block,
                                           config.block_bytes)))
        if name == "hotpage":
            first = HOT_PAGE * per_page
            for offset in range(per_page):
                block = first + offset
                writes.append((block, _payload(seed, epoch, 1000 + offset,
                                               block, config.block_bytes)))
        schedule.append(writes)
    return schedule


def observed_blocks(schedule: Schedule) -> List[int]:
    """Every block the oracle must compare after recovery (sorted)."""
    seen: Set[int] = set()
    for writes in schedule:
        for block, _payload_bytes in writes:
            seen.add(block)
    return sorted(seen)
