"""Bounded request queues with backpressure.

The memory controller in Figure 2 of the paper has four queues: DRAM
read, DRAM write, NVM read and NVM write.  :class:`BoundedQueue` models
one of them.  Producers that find the queue full register a waiter
callback and are re-tried in FIFO order as slots free up — this is how
checkpointing traffic exerts backpressure on the CPU (and vice versa).

Entries are kept **per bank**, each bank's list ordered by age: every
entry is stamped (``MemoryRequest.age``) when it enters the queue, so
the stamps order the entries exactly as one global FIFO would.  The
FR-FCFS pick (`pop_ready`) then visits only the banks that are free,
and compares candidates from different banks by (key, age) — the same
pick a scan of the whole FIFO makes (docs/PERFORMANCE.md,
"Bank-indexed queue").

Capacity is counted in *blocks*.  Most queued entries are single-block
requests; a **bulk run** (``MemoryRequest.bulk``) is one entry that
occupies one slot per admitted-but-unserviced block.  Runs keep the
exact semantics of the per-block representation they replace:

* a run's blocks are admitted in order and only ever appended at the
  queue *tail* (`try_enqueue_bulk` on first admission, `grow_bulk`
  afterwards) — `grow_bulk` refuses when the run is not the youngest
  queued entry, and the caller admits that block as an ordinary single
  request instead, so every block lands at exactly the FIFO position
  it would have occupied as an individual request;
* a run that drains and re-enters is stamped afresh: it re-enters as
  the youngest entry, as its next block would have;
* every admitted block is registered in the per-address index, so
  same-address ordering and read-after-write forwarding see bulk
  blocks exactly like singles;
* the scheduler services a run one block at a time with full
  re-arbitration in between; all blocks of a run share one (bank, row,
  demand) so only the run's oldest unserviced block (``head_addr``)
  can ever be the FR-FCFS pick, which is also true of the per-block
  representation;
* a block's slot frees (waking one waiter) when its service starts,
  just as popping an individual request did.

The per-address index (address → chain of queued entries, oldest
first) makes the scheduler's same-address ordering check and the
controller's read-after-write forwarding O(1)/O(chain) lookups instead
of full-queue scans.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Callable, Deque, Dict, List, Optional

from ..errors import SimulationError
from .request import MemoryRequest


class BoundedQueue:
    """Age-ordered :class:`MemoryRequest` entries, indexed by bank, with
    a block capacity."""

    def __init__(self, name: str, capacity: int) -> None:
        if capacity <= 0:
            raise SimulationError(f"queue {name!r} needs positive capacity")
        self.name = name
        self.capacity = capacity
        # bank -> that bank's queued entries, oldest first; banks with
        # no queued entry have no key, so a scheduling pass visits only
        # banks that hold work.
        self._banks: Dict[int, List[MemoryRequest]] = {}
        # addr -> same-address entries, oldest first.  An entry is
        # eligible for (re)scheduling only while it heads the chain of
        # its next unserviced block's address.
        self._by_addr: Dict[int, Deque[MemoryRequest]] = {}
        self._waiters: Deque[Callable[[], None]] = deque()
        self._size = 0            # occupied slots, in blocks
        self._age = 0             # the last age stamp handed out
        # The youngest queued entry; None once it has left, until
        # grow_bulk next needs it.
        self._tail: Optional[MemoryRequest] = None

    # --- producer side ---------------------------------------------------

    @property
    def full(self) -> bool:
        return self._size >= self.capacity

    def _append(self, request: MemoryRequest) -> None:
        """Queue ``request`` as the youngest entry."""
        age = self._age + 1
        self._age = age
        request.age = age
        entries = self._banks.get(request.bank)
        if entries is None:
            self._banks[request.bank] = entries = []
        entries.append(request)
        self._tail = request

    def try_enqueue(self, request: MemoryRequest) -> bool:
        """Append a single-block ``request`` if a slot is free."""
        if self._size >= self.capacity:
            return False
        # Inlined from _append: this runs once per single request.
        age = self._age + 1
        self._age = age
        request.age = age
        entries = self._banks.get(request.bank)
        if entries is None:
            self._banks[request.bank] = entries = []
        entries.append(request)
        self._tail = request
        chain = self._by_addr.get(request.addr)
        if chain is None:
            self._by_addr[request.addr] = chain = deque()
        chain.append(request)
        self._size += 1
        return True

    def try_enqueue_bulk(self, request: MemoryRequest) -> int:
        """First admission of a bulk run: append one entry at the tail
        covering as many of its blocks as there are free slots.

        Returns the number of blocks admitted (0 when full).  The
        caller registers one waiter per unadmitted block, exactly as
        the per-block representation registered one retry per rejected
        request.
        """
        free = self.capacity - self._size
        if free <= 0:
            return 0
        count = min(free, request.total - request.issued)
        self._admit_blocks(request, count)
        if not request.in_queue:
            self._append(request)
            request.in_queue = True
        return count

    def grow_bulk(self, request: MemoryRequest) -> bool:
        """Admit one more block of ``request`` at its exact FIFO slot.

        Only legal when that slot is the queue tail: the run is the
        youngest queued entry, or the run is not queued at all (fully
        serviced or never admitted) and re-enters as a fresh tail
        entry.  Returns False when the queue is full or a younger entry
        is queued — the caller then admits the block as an ordinary
        single request, which preserves exact per-block FIFO order.
        """
        if self._size >= self.capacity:
            return False
        if request.in_queue:
            tail = self._tail
            if tail is None:
                # The youngest entry left: the new one is the youngest
                # of the banks' last (youngest) entries.
                tail = max((entries[-1] for entries in self._banks.values()),
                           key=attrgetter("age"))
                self._tail = tail
            if tail is not request:
                return False
        else:
            self._append(request)
            request.in_queue = True
        # Single-block admission, inlined from _admit_blocks: this runs
        # once per grown block on the hot path.
        index = request.issued
        addr = request.addr + index * request.stride
        chain = self._by_addr.get(addr)
        if chain is None:
            self._by_addr[addr] = chain = deque()
        chain.append(request)
        pending = request.pending
        pending.append((addr, index))
        request.issued = index + 1
        request.queued += 1
        request.head_addr = pending[0][0]
        self._size += 1
        return True

    def _admit_blocks(self, request: MemoryRequest, count: int) -> None:
        by_addr = self._by_addr
        index = request.issued
        addr = request.addr + index * request.stride
        stride = request.stride
        pending = request.pending
        for _ in range(count):
            chain = by_addr.get(addr)
            if chain is None:
                by_addr[addr] = chain = deque()
            chain.append(request)
            pending.append((addr, index))
            addr += stride
            index += 1
        request.issued = index
        request.queued += count
        request.head_addr = pending[0][0]
        self._size += count

    def wait_for_slot(self, callback: Callable[[], None]) -> None:
        """Call ``callback`` once, the next time a slot frees up."""
        self._waiters.append(callback)

    # --- consumer side ---------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def items(self):
        """Iterate queued *entries*, bank by bank (a bulk run appears
        once; its occupied slots are ``entry.queued``).  Write fences
        snapshot their outstanding set from this; they register per
        entry, so the order does not matter."""
        for entries in self._banks.values():
            yield from entries

    def youngest_payload(self, addr: int) -> Optional[bytes]:
        """Data of the youngest queued same-address request carrying a
        payload, or None.  Read-after-write forwarding uses this instead
        of scanning the whole queue: the index chain holds exactly the
        same-address entries, oldest first."""
        chain = self._by_addr.get(addr)
        if not chain:
            return None
        for request in reversed(chain):
            if request.total == 1:
                if request.data is not None:
                    return request.data
            elif request.block_data is not None:
                data = request.block_data[(addr - request.addr)
                                          // request.stride]
                if data is not None:
                    return data
        return None

    def _unindex(self, request: MemoryRequest, addr: int) -> None:
        """Drop ``request``'s block at ``addr`` from its address chain
        (it must head it)."""
        chain = self._by_addr[addr]
        if chain[0] is not request:
            raise SimulationError(
                f"queue {self.name!r} index corrupt: removed request is "
                f"not the oldest for address 0x{addr:x}")
        chain.popleft()
        if not chain:
            del self._by_addr[addr]

    def _service_head_block(self, request: MemoryRequest) -> None:
        """Start-of-service bookkeeping for the queued entry ``request``:
        free the block's slot, advance run cursors, record the serviced
        block in ``service_addr``/``service_index``, and take the entry
        out of its bank's list once no block of it is left queued."""
        addr = request.head_addr
        self._unindex(request, addr)
        self._size -= 1
        drained = True
        if request.total > 1:
            block_addr, block_index = request.pending.popleft()
            if block_addr != addr:
                raise SimulationError(
                    f"queue {self.name!r}: run head 0x{addr:x} does not "
                    f"match its oldest pending block 0x{block_addr:x}")
            request.service_addr = addr
            request.service_index = block_index
            request.serviced += 1
            queued = request.queued - 1
            request.queued = queued
            if queued:
                request.head_addr = request.pending[0][0]
                drained = False
            else:
                request.in_queue = False
        if drained:
            entries = self._banks[request.bank]
            entries.remove(request)
            if not entries:
                del self._banks[request.bank]
            if request is self._tail:
                self._tail = None
        waiters = self._waiters
        if waiters:
            waiters.popleft()()

    def pop_ready(
        self,
        busy_banks,
        open_rows,
        demand_priority: bool = False,
    ) -> Optional[MemoryRequest]:
        """Remove the best serviceable block, or None.

        ``busy_banks`` is a container supporting ``in`` over bank
        numbers with an in-flight service; ``open_rows`` maps bank →
        open row (indexable, None = closed).  Entries carry their
        pre-decoded ``bank``/``row``/``demand`` fields, so candidate
        evaluation is attribute reads, not callbacks (see
        docs/PERFORMANCE.md; the straight-line reference semantics are
        pinned by tests/property/test_pop_ready_reference.py).

        Among ready blocks the ordering is: demand beats background
        (only when ``demand_priority``), row-buffer hits beat misses,
        older beats younger.  Same-address requests are never
        reordered: a block is ineligible while an older same-address
        block is still queued — equivalently, while its entry is not
        the head of the block's address chain.  A bulk run's candidate
        is its oldest unserviced block; its younger siblings share the
        same (bank, row, demand) and can never beat it, exactly as in
        the per-block representation.

        Only free banks are visited.  Within a bank the entries are
        oldest first, so the first eligible key-0 entry ends that
        bank's walk; across banks the lowest (key, age) wins, which is
        the pick a scan of one global FIFO makes.
        """
        best = None
        best_key = 4                 # above the worst key (2*d + p <= 3)
        best_age = 0
        background = 2 if demand_priority else 0
        by_addr = self._by_addr
        for bank, entries in self._banks.items():
            if bank in busy_banks:
                continue
            open_row = open_rows[bank]
            for request in entries:
                if by_addr[request.head_addr][0] is not request:
                    continue
                key = 0 if request.demand else background
                if open_row != request.row:
                    key += 1
                if key < best_key or (key == best_key
                                      and request.age < best_age):
                    best, best_key, best_age = request, key, request.age
                if key == 0:
                    break            # nothing younger in this bank beats it
        if best is None:
            return None
        self._service_head_block(best)
        return best

    def drop_all(self) -> int:
        """Discard everything (crash model: in-flight writes are lost).

        Waiters are dropped silently — after a crash nothing resumes.
        Returns the number of dropped blocks.
        """
        count = self._size
        for request in self.items():
            if request.total > 1:
                request.in_queue = False
                request.queued = 0
                request.pending.clear()
        self._banks.clear()
        self._by_addr.clear()
        self._waiters.clear()
        self._size = 0
        self._tail = None
        return count
