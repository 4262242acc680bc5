"""YCSB-style workload presets for the key-value stores.

The paper's storage benchmarks use a search/insert/delete mix over a
key-value store; downstream users usually reason in terms of the YCSB
core workloads.  These presets map the standard mixes onto
:class:`~repro.workloads.kvstore.workload.KVWorkload`:

* **A** — update heavy (50 % read / 50 % update),
* **B** — read mostly (95 % read / 5 % update),
* **C** — read only,
* **D** — read latest (95 % read / 5 % insert; recency skew is
  approximated by a narrow key window),
* **F** — read-modify-write (every op reads then updates).

* **E** — short range scans (95 % scan / 5 % insert) — runs on the
  B+-tree store, the only structure with ordered leaves.

Inserts and updates are both `insert` on the store (it upserts).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, Optional

from ..cpu.trace import Op, txn, work
from ..errors import WorkloadError
from .kvstore.workload import KVWorkload

YCSB_MIXES: Dict[str, Dict[str, float]] = {
    "A": {"search_frac": 0.5, "insert_frac": 0.5},
    "B": {"search_frac": 0.95, "insert_frac": 0.05},
    "C": {"search_frac": 1.0, "insert_frac": 0.0},
    "D": {"search_frac": 0.95, "insert_frac": 0.05},
    "E": {"search_frac": 0.95, "insert_frac": 0.05},   # scans, B+-tree
    "F": {"search_frac": 0.0, "insert_frac": 1.0},
}


def ycsb_workload(mix: str, structure: str = "hashtable",
                  request_size: int = 256, num_ops: int = 2000,
                  persist_every: Optional[int] = None,
                  seed: int = 7) -> KVWorkload:
    """Build the :class:`KVWorkload` for one YCSB core mix."""
    mix = mix.upper()
    if mix not in YCSB_MIXES:
        raise WorkloadError(
            f"unknown YCSB mix {mix!r}; choose from {sorted(YCSB_MIXES)}")
    params = YCSB_MIXES[mix]
    workload = KVWorkload(structure=structure, request_size=request_size,
                          num_ops=num_ops, preload=max(500, num_ops // 2),
                          search_frac=params["search_frac"],
                          insert_frac=params["insert_frac"],
                          persist_every=persist_every, seed=seed)
    if mix == "D":
        # Read-latest: narrow the key window so reads hit recent inserts.
        workload = replace(workload, key_space=max(256, num_ops // 4))
    if mix == "E":
        workload = replace(workload, structure="btree")
    return workload


def ycsb_trace(mix: str, **kwargs) -> Iterator[Op]:
    """Trace for one YCSB mix (thin wrapper over :func:`kv_trace`).

    Workload F (read-modify-write) issues a search before every update,
    like the YCSB driver does.
    """
    from .kvstore.workload import kv_trace, value_maker

    mix = mix.upper()
    workload = ycsb_workload(mix, **kwargs)
    if mix not in ("E", "F"):
        yield from kv_trace(workload)
        return

    # E (scan) and F (read-modify-write) need custom per-transaction
    # behaviour: drive the store directly (same machinery as kv_trace).
    import random

    rng = random.Random(workload.seed)
    memory, _, store = workload.build_store()
    value_for = value_maker(workload.request_size)

    for _ in range(workload.preload):
        key = rng.randrange(1, workload.key_space)
        store.insert(key, value_for(key))
        memory.drain_ops()
    for _ in range(workload.num_ops):
        key = rng.randrange(1, workload.key_space)
        yield work(workload.work_per_txn)
        if mix == "F":
            store.search(key)                   # read...
            store.insert(key, value_for(key))   # ...modify-write
        elif rng.random() < workload.search_frac:
            store.range_scan(key, key + rng.randrange(8, 64))
        else:
            store.insert(key, value_for(key))
        yield from memory.drain_ops()
        yield txn()
