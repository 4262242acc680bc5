"""Golden determinism guard for the simulator hot path.

``tests/golden/micro_summaries.json`` snapshots
``StatsCollector.summary()`` for every compared system on the Fig. 7/8
micro-benchmark workloads, captured *before* the hot-path optimization
pass.  This test re-runs the same matrix and asserts the summaries are
byte-identical — any perf work that changes a single simulated outcome
(cycle counts, traffic breakdowns, epoch counts, stall attribution)
fails here, not in a noisy figure diff.

``tests/golden/fuzz_probe_sequences.json`` pins the protocol's probe
stream: for every fuzz system on both fuzz workloads, the ordered
``kind.detail`` events of the census plan, run-length encoded.  Crash
plans address sites by occurrence, so a reordered, dropped or extra
probe silently moves every pinned plan's crash point; this fails first.

``tests/golden/kv_summaries.json`` pins the key-value front end: for
thynvm, journaling and shadow paging on all three stores, the
``summary()``, the cache hit/miss counters and the engine's fired-event
count, plus a sha256 over each store's ``kv_trace`` op stream.  The
micro cells issue only aligned one-block accesses; these value sizes
make stores and loads straddle blocks (the value cell's 8 B length
header shifts them off block alignment), so the core's multi-block
access path is pinned too.

The guard stays in tree to protect future perf work.  Regenerate the
goldens only when a change is *supposed* to alter simulated results:

    PYTHONPATH=src python tests/integration/test_golden_determinism.py --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.fuzz import runner as fuzz_runner
from repro.fuzz.plan import FUZZ_SYSTEMS
from repro.fuzz.workloads import WORKLOAD_NAMES
from repro.harness.experiments import MICRO_FOOTPRINT, experiment_config
from repro.harness.runner import execute, run_workload
from repro.harness.systems import build_system
from repro.workloads.kvstore import KVWorkload, kv_trace
from repro.workloads.tracespec import micro_spec

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "micro_summaries.json"
PROBE_GOLDEN_PATH = (Path(__file__).parent.parent / "golden"
                     / "fuzz_probe_sequences.json")
KV_GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "kv_summaries.json"

# The census shape the probe-sequence golden is taken at.
PROBE_SEED, PROBE_EPOCHS, PROBE_BLOCKS = 1, 3, 16

# The five compared systems x the three Fig. 7/8 access patterns.
SYSTEMS = ("ideal_dram", "ideal_nvm", "journal", "shadow", "thynvm")
WORKLOADS = ("random", "streaming", "sliding")
NUM_OPS = 2000
SEED = 1

# The matrix above never overflows the default BTT, so a smaller table
# adds the cells that reach mid-epoch emergency eviction (§4.3): both
# its free home-region drops and its region-A consolidations.
EVICTION_BTT_ENTRIES = 256
EVICTION_WORKLOADS = ("sliding", "random")


# One value size per store, each straddling 64 B blocks.  The hash table
# also issues a durability barrier every 50 transactions, which stalls
# the core and wakes it again on every system.
KV_STORES = (("hashtable", 136, 50), ("rbtree", 100, None),
             ("btree", 200, None))
KV_SYSTEMS = ("thynvm", "journal", "shadow")
KV_OPS, KV_PRELOAD, KV_KEY_SPACE, KV_SEED = 200, 200, 1024, 3


def _cells():
    for workload in WORKLOADS:
        for system in SYSTEMS:
            yield f"{workload}/{system}", workload, system


def _eviction_cells():
    for workload in EVICTION_WORKLOADS:
        yield f"{workload}/thynvm@btt{EVICTION_BTT_ENTRIES}", workload


def _run_eviction_cell(workload: str) -> dict:
    return _run_cell(workload, "thynvm", btt_entries=EVICTION_BTT_ENTRIES)


def _run_cell(workload: str, system: str, **overrides) -> dict:
    spec = micro_spec(workload, MICRO_FOOTPRINT, NUM_OPS, seed=SEED)
    result = run_workload(system, spec.build(), experiment_config(**overrides))
    # Round-trip through JSON so the comparison sees exactly what the
    # golden file stores (e.g. dict key ordering, float rendering).
    return json.loads(json.dumps(result.stats.summary(), sort_keys=True))


def _load_goldens() -> dict:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("cell,workload,system",
                         list(_cells()),
                         ids=[cell for cell, _, _ in _cells()])
def test_summary_matches_golden(cell, workload, system):
    goldens = _load_goldens()
    assert cell in goldens, (
        f"no golden for {cell}; regenerate with "
        f"`python {Path(__file__).relative_to(Path.cwd())} --regen`")
    assert _run_cell(workload, system) == goldens[cell], (
        f"simulated results changed for {cell}: the optimization pass "
        f"must be byte-identical (see docs/PERFORMANCE.md)")


@pytest.mark.parametrize("cell,workload", list(_eviction_cells()),
                         ids=[cell for cell, _ in _eviction_cells()])
def test_eviction_summary_matches_golden(cell, workload):
    goldens = _load_goldens()
    assert cell in goldens, f"no golden for {cell}"
    assert _run_eviction_cell(workload) == goldens[cell], (
        f"simulated results changed for {cell}: emergency eviction must "
        f"pick the same victims (see docs/PERFORMANCE.md)")


def _probe_cells():
    for system in FUZZ_SYSTEMS:
        for workload in WORKLOAD_NAMES:
            yield f"{system}/{workload}", system, workload


def _probe_sequence(system: str, workload: str) -> list:
    """The census plan's probe stream as ``[key, run length]`` pairs."""
    stream: list = []
    observe = fuzz_runner.CrashInjector.observe

    def recording_observe(self, kind: str, detail: str) -> None:
        key = f"{kind}.{detail}" if detail else kind
        if stream and stream[-1][0] == key:
            stream[-1][1] += 1
        else:
            stream.append([key, 1])
        observe(self, kind, detail)

    fuzz_runner.CrashInjector.observe = recording_observe
    try:
        fuzz_runner.census(system, workload, PROBE_SEED, PROBE_EPOCHS,
                           PROBE_BLOCKS)
    finally:
        fuzz_runner.CrashInjector.observe = observe
    return stream


@pytest.mark.parametrize("cell,system,workload", list(_probe_cells()),
                         ids=[cell for cell, _, _ in _probe_cells()])
def test_probe_sequence_matches_golden(cell, system, workload):
    with PROBE_GOLDEN_PATH.open() as handle:
        goldens = json.load(handle)
    assert cell in goldens, f"no probe-sequence golden for {cell}"
    assert _probe_sequence(system, workload) == goldens[cell], (
        f"probe stream changed for {cell}: pinned crash plans address "
        f"sites by occurrence (see docs/FUZZING.md)")


def _kv_workload(structure: str) -> KVWorkload:
    [(size, persist_every)] = [(size, persist_every)
                               for name, size, persist_every in KV_STORES
                               if name == structure]
    return KVWorkload(structure=structure, request_size=size,
                      num_ops=KV_OPS, preload=KV_PRELOAD,
                      key_space=KV_KEY_SPACE, persist_every=persist_every,
                      seed=KV_SEED)


def _kv_cells():
    for structure, _, _ in KV_STORES:
        for system in KV_SYSTEMS:
            yield f"{structure}/{system}", structure, system


def _run_kv_cell(structure: str, system: str) -> dict:
    machine = build_system(system, experiment_config())
    execute(machine, kv_trace(_kv_workload(structure)))
    stats = machine.stats
    return {"events": machine.engine.events_fired,
            "cache_hits": stats.cache_hits.as_dict(),
            "cache_misses": stats.cache_misses.as_dict(),
            "summary": json.loads(json.dumps(stats.summary(),
                                             sort_keys=True))}


def _kv_trace_digest(structure: str) -> str:
    """sha256 over the store's op stream, one ``kind addr size`` line
    per op."""
    digest = hashlib.sha256()
    for kind, addr, size in kv_trace(_kv_workload(structure)):
        digest.update(f"{kind.value} {addr} {size}\n".encode())
    return digest.hexdigest()


def _load_kv_goldens() -> dict:
    with KV_GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("cell,structure,system", list(_kv_cells()),
                         ids=[cell for cell, _, _ in _kv_cells()])
def test_kv_summary_matches_golden(cell, structure, system):
    goldens = _load_kv_goldens()["runs"]
    assert cell in goldens, f"no key-value golden for {cell}"
    assert _run_kv_cell(structure, system) == goldens[cell], (
        f"simulated results changed for {cell}: the CPU front end must "
        f"issue the same block accesses and events (docs/PERFORMANCE.md)")


#: Bound on heap pushes in the ``btree/thynvm`` key-value cell.  It
#: fires 21,058 events; a core that pushes one event per step, hit and
#: retire (``tests/property/scheduled_core.py``) schedules all 21,058,
#: the shipped one 2,824 (docs/PERFORMANCE.md, "Inline core steps").
KV_SCHEDULE_BOUND = 5_000


def test_kv_core_steps_bypass_the_heap():
    machine = build_system("thynvm", experiment_config())
    engine = machine.engine
    pushes = [0]
    for name in ("schedule", "schedule_at"):
        def counted(*args, real=getattr(engine, name)):
            pushes[0] += 1
            return real(*args)
        setattr(engine, name, counted)
    execute(machine, kv_trace(_kv_workload("btree")))
    assert engine.events_fired == \
        _load_kv_goldens()["runs"]["btree/thynvm"]["events"]
    assert pushes[0] <= KV_SCHEDULE_BOUND, (
        f"{pushes[0]} of {engine.events_fired} events went through the "
        f"heap: the core's own steps must fire in place when nothing is "
        f"queued ahead of them (Engine.advance)")


@pytest.mark.parametrize("structure", [name for name, _, _ in KV_STORES])
def test_kv_trace_matches_golden(structure):
    goldens = _load_kv_goldens()["trace_sha256"]
    assert _kv_trace_digest(structure) == goldens[structure], (
        f"the {structure} key-value generator's op stream changed")


def _write_json(path: Path, goldens: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(goldens)} goldens to {path}")


def _regen() -> None:
    goldens = {cell: _run_cell(workload, system)
               for cell, workload, system in _cells()}
    goldens.update((cell, _run_eviction_cell(workload))
                   for cell, workload in _eviction_cells())
    _write_json(GOLDEN_PATH, goldens)
    _write_json(PROBE_GOLDEN_PATH,
                {cell: _probe_sequence(system, workload)
                 for cell, system, workload in _probe_cells()})
    _write_json(KV_GOLDEN_PATH, {
        "runs": {cell: _run_kv_cell(structure, system)
                 for cell, structure, system in _kv_cells()},
        "trace_sha256": {structure: _kv_trace_digest(structure)
                         for structure, _, _ in KV_STORES}})


if __name__ == "__main__":
    import sys
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
