"""Transaction generators over the key-value stores (§5.3).

A :class:`KVWorkload` executes a mix of search/insert/delete
transactions against a hash-table or red-black-tree store living in a
simulated heap, and yields the recorded memory accesses as the CPU
trace.  The request size (value size) is the Fig. 9/10 x-axis
parameter, swept from 16 B to 4 KB.

The generator pre-populates the store with ``preload`` entries *before*
tracing begins (warm store, like the paper's measurements), then emits
one ``txn`` marker per traced transaction so the harness can report
transactions per second.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from ...cpu.trace import Op, persist, txn, work
from ...errors import WorkloadError
from .alloc import Allocator
from .btree import BPlusTree
from .hashtable import HashTable
from .rbtree import RedBlackTree
from .recmem import RecordingMemory


@dataclass
class KVWorkload:
    """Configuration for one key-value-store run."""

    structure: str = "hashtable"        # "hashtable" | "rbtree" | "btree"
    request_size: int = 64              # value bytes (Fig. 9/10 x-axis)
    num_ops: int = 2000                 # traced transactions
    preload: int = 1000                 # entries inserted before tracing
    key_space: int = 4096
    search_frac: float = 0.5
    insert_frac: float = 0.4            # remainder are deletes
    heap_bytes: int = 6 * 1024 * 1024
    heap_base: int = 0
    work_per_access: int = 4
    work_per_txn: int = 64              # request parsing/hashing etc.
    # §6 explicit persistence: emit a durability barrier after every N
    # transactions (None = rely on periodic epochs alone).
    persist_every: Optional[int] = None
    seed: int = 7

    def __post_init__(self) -> None:
        if self.structure not in ("hashtable", "rbtree", "btree"):
            raise WorkloadError(f"unknown structure {self.structure!r}")
        if not 0 <= self.search_frac + self.insert_frac <= 1:
            raise WorkloadError("operation fractions must sum to at most 1")
        if self.request_size <= 0:
            raise WorkloadError("request_size must be positive")
        if self.persist_every is not None and self.persist_every <= 0:
            raise WorkloadError("persist_every must be positive or None")

    def build_store(self):
        """Instantiate the heap, allocator and data structure."""
        memory = RecordingMemory(self.heap_bytes, self.work_per_access)
        allocator = Allocator(self.heap_base + 64, self.heap_bytes - 64)
        if self.structure == "hashtable":
            store = HashTable(memory, allocator,
                              bucket_count=max(64, self.key_space // 4))
        elif self.structure == "rbtree":
            store = RedBlackTree(memory, allocator)
        else:
            store = BPlusTree(memory, allocator)
        return memory, allocator, store


def value_maker(request_size: int) -> Callable[[int], bytes]:
    """``value_for(key)``: the ``request_size`` bytes ``key * 31 + i``
    (mod 256), sliced from one precomputed cycle of the bytes 0-255."""
    cycle = bytes(range(256)) * ((request_size + 510) // 256)

    def value_for(key: int) -> bytes:
        start = (key * 31) & 0xFF
        return cycle[start:start + request_size]

    return value_for


def kv_trace(config: KVWorkload) -> Iterator[Op]:
    """Generate the memory trace of one key-value-store run."""
    rng = random.Random(config.seed)
    memory, _, store = config.build_store()
    value_for = value_maker(config.request_size)

    # Warm the store silently: discard the preload's accesses.
    for _ in range(config.preload):
        key = rng.randrange(1, config.key_space)
        store.insert(key, value_for(key))
        memory.drain_ops()

    txn_work, txn_done = work(config.work_per_txn), txn()
    for index in range(config.num_ops):
        dice = rng.random()
        key = rng.randrange(1, config.key_space)
        yield txn_work
        if dice < config.search_frac:
            store.search(key)
        elif dice < config.search_frac + config.insert_frac:
            store.insert(key, value_for(key))
        else:
            store.delete(key)
        yield from memory.drain_ops()
        yield txn_done
        if (config.persist_every
                and index % config.persist_every == config.persist_every - 1):
            yield persist()
