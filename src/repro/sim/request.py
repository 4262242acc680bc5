"""Memory requests flowing between the caches and the memory system.

Every request covers one or more cache blocks (64 B by default); larger
software accesses are split by the cache hierarchy.  The ``origin`` tag
classifies NVM write traffic the way Figure 8 of the paper does: direct
CPU writebacks, checkpointing writes, and migration writes.

Single-block requests behave exactly as they always have.  A **bulk**
request (``total > 1``, built with :meth:`MemoryRequest.bulk`) stands
for a run of ``total`` consecutive same-row blocks — a page copy or a
checkpoint flush — and occupies one queue entry per run instead of one
per block (docs/PERFORMANCE.md).  The device still services a bulk
block by block, with full FR-FCFS re-arbitration between blocks, so a
bulk is *timing-identical* to issuing its blocks as individual
requests; only the host-side bookkeeping is batched.  Bulk progress is
tracked by four cursors::

    0 <= completed <= serviced <= issued <= total

``issued`` blocks have been admitted to a queue (and count against its
capacity until serviced), ``serviced`` blocks have started their device
access, ``completed`` blocks have finished it.  ``queued`` is the
admitted-but-unserviced count the queue entry currently occupies.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from typing import Callable, List, Optional

from ..errors import SimulationError


class Origin(enum.Enum):
    """Who generated a memory request (drives the Fig. 8 breakdown)."""

    CPU = "cpu"                  # demand fill or LLC writeback
    FLUSH = "flush"              # epoch-boundary cache/CPU-state flush
    CHECKPOINT = "checkpoint"    # checkpointing-phase data/metadata writes
    MIGRATION = "migration"      # scheme-switch data movement
    JOURNAL = "journal"          # journaling baseline's log writes
    RECOVERY = "recovery"        # post-crash restore traffic

    def counts_as_cpu(self) -> bool:
        """Fig. 8 groups demand and flush writebacks as 'CPU' traffic."""
        return self in (Origin.CPU, Origin.FLUSH)


_req_ids = itertools.count()

# Precomputed per-Origin facts, stamped onto the members themselves so
# request construction reads plain attributes — no enum hashing or
# method calls on the issue path (this runs once per request).
for _origin in Origin:
    _origin.key = _origin.value
    _origin.demand_flag = _origin.counts_as_cpu()
del _origin


class MemoryRequest:
    """One block-sized access, or a bulk run of same-row blocks.

    ``bank``/``row`` cache the device's address decode — filled in by
    the memory controller when the request is submitted, then reused by
    every scheduling pass instead of re-deriving them per candidate.
    ``demand``/``origin_key`` denormalize the origin the same way.
    ``head_addr`` is the address the queue's same-address ordering check
    keys on: the request's address for singles, the oldest unserviced
    block for bulks.  ``age`` is the stamp the queue gave the entry when
    it (re-)entered; FR-FCFS breaks ties by it.
    """

    __slots__ = (
        "req_id", "addr", "is_write", "origin", "data",
        "issue_time", "complete_time", "callback",
        "bank", "row", "demand", "origin_key", "head_addr", "age",
        # Bulk-run state (present only when total > 1):
        "total", "stride", "issued", "queued", "serviced", "completed",
        "in_queue", "pending", "block_data", "admit_times", "fences",
        "service_addr", "service_index",
    )

    def __init__(
        self,
        addr: int,
        is_write: bool,
        origin: Origin = Origin.CPU,
        data: Optional[bytes] = None,
        callback: Optional[Callable[["MemoryRequest"], None]] = None,
    ) -> None:
        self.req_id = next(_req_ids)
        self.addr = addr
        self.is_write = is_write
        self.origin = origin
        self.data = data
        self.issue_time: Optional[int] = None
        self.complete_time: Optional[int] = None
        self.callback = callback
        self.bank: Optional[int] = None
        self.row: Optional[int] = None
        self.demand = origin.demand_flag
        self.origin_key = origin.key
        self.head_addr = addr
        self.total = 1

    @classmethod
    def bulk(
        cls,
        addr: int,
        is_write: bool,
        origin: Origin,
        total: int,
        stride: int,
        callback: Optional[Callable[["MemoryRequest", int, Optional[bytes]],
                                    None]] = None,
        carries_data: bool = False,
    ) -> "MemoryRequest":
        """A run of ``total`` blocks at ``addr + i * stride``.

        ``callback(request, index, payload)`` fires once per completed
        block (``payload`` is the read data for read bulks).  A
        data-carrying write bulk (``carries_data``) allocates
        ``block_data``; the issuer fills slot ``i`` when it admits
        block ``i``, and the device stores it at that block's service.
        A run has at least two blocks: the controller serves a
        one-block request as a single, so a one-block "run" would lose
        its payload and get a single's callback.
        """
        if total < 2:
            raise SimulationError(
                f"a bulk run needs at least two blocks, got {total}")
        request = cls(addr, is_write, origin, callback=callback)
        request.total = total
        request.stride = stride
        request.issued = 0
        request.queued = 0
        request.serviced = 0
        request.completed = 0
        request.in_queue = False
        # Queue-resident blocks as (addr, index), admission order.  A
        # run's blocks need not be contiguous in its entry: a block the
        # entry could not legally absorb is admitted as a fallback
        # single, leaving a hole this deque records around.
        request.pending = deque()
        request.block_data: Optional[List[Optional[bytes]]] = (
            [None] * total if carries_data else None)
        request.admit_times: List[int] = []
        request.fences: List[list] = []
        return request

    def block_addr(self, index: int) -> int:
        """Hardware address of block ``index`` of a bulk run."""
        return self.addr + index * self.stride

    @property
    def latency(self) -> Optional[int]:
        """Queueing + service latency, once complete."""
        if self.issue_time is None or self.complete_time is None:
            return None
        return self.complete_time - self.issue_time

    def complete(self, now: int) -> None:
        """Mark the request finished and fire its completion callback."""
        self.complete_time = now
        if self.callback is not None:
            self.callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "W" if self.is_write else "R"
        if self.total > 1:
            return (f"<MemReq#{self.req_id} {kind}x{self.total} "
                    f"0x{self.addr:x} {self.origin.value} "
                    f"i{self.issued}/s{self.serviced}/c{self.completed}>")
        return f"<MemReq#{self.req_id} {kind} 0x{self.addr:x} {self.origin.value}>"
