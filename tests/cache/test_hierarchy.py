"""Unit tests for the three-level hierarchy over a scripted port."""

from typing import List

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.config import small_test_config
from repro.sim.engine import Engine
from repro.sim.request import MemoryRequest, Origin
from repro.stats.collector import StatsCollector


class ScriptedPort:
    """Records port traffic; services everything after a fixed delay."""

    def __init__(self, engine, latency=100):
        self.engine = engine
        self.latency = latency
        self.reads: List[int] = []
        self.writes: List[int] = []

    def read_block(self, addr, origin, callback):
        self.reads.append(addr)
        request = MemoryRequest(addr, False, origin, callback=callback)
        self.engine.schedule(self.latency,
                             lambda: request.complete(self.engine.now))

    def write_block(self, addr, origin, data=None, callback=None,
                    on_accept=None):
        self.writes.append(addr)
        if on_accept is not None:
            on_accept()
        request = MemoryRequest(addr, True, origin, data=data,
                                callback=callback)
        self.engine.schedule(self.latency,
                             lambda: request.complete(self.engine.now))


@pytest.fixture
def setup():
    config = small_test_config()
    engine = Engine()
    stats = StatsCollector()
    port = ScriptedPort(engine)
    hierarchy = CacheHierarchy(engine, config, port, stats)
    return engine, hierarchy, port, stats, config


def _access(engine, hierarchy, addr, is_write):
    """The cycle one access completes, driven as the core drives it: a
    hit's latency is scheduled, a miss calls back after its fill."""
    done = []
    latency = hierarchy.access(addr, is_write, lambda: done.append(engine.now))
    if latency is not None:
        engine.schedule(latency, lambda: done.append(engine.now))
    engine.run_until_idle()
    assert len(done) == 1
    return done[0]


def test_hit_returns_latency_and_miss_calls_back(setup):
    engine, hierarchy, _port, _stats, config = setup
    calls = []
    assert hierarchy.access(0, False, lambda: calls.append(engine.now)) \
        is None
    assert engine.pending_events == 1 and not calls
    engine.run_until_idle()
    assert len(calls) == 1
    # The block now hits in L1: its latency comes back, nothing is
    # scheduled and on_done is never called.
    assert hierarchy.access(0, True, lambda: calls.append(engine.now)) \
        == config.l1.hit_latency
    assert engine.pending_events == 0
    engine.run_until_idle()
    assert len(calls) == 1


def test_miss_goes_to_memory_then_hits(setup):
    engine, hierarchy, port, stats, config = setup
    t_miss = _access(engine, hierarchy, 0, False)
    assert port.reads == [0]
    t0 = engine.now
    t_hit = _access(engine, hierarchy, 0, False) - t0
    assert t_hit == config.l1.hit_latency
    assert t_hit < t_miss
    assert stats.cache_hits.get("L1") == 1
    assert stats.cache_misses.get("LLC") == 1


def test_store_marks_dirty(setup):
    engine, hierarchy, _port, _stats, _config = setup
    _access(engine, hierarchy, 0, True)
    assert hierarchy.dirty_block_count() == 1


def test_load_does_not_dirty(setup):
    engine, hierarchy, _port, _stats, _config = setup
    _access(engine, hierarchy, 0, False)
    assert hierarchy.dirty_block_count() == 0


def test_flush_writes_back_dirty_blocks_once(setup):
    engine, hierarchy, port, _stats, _config = setup
    for i in range(4):
        _access(engine, hierarchy, i * 64, True)
    results = {}
    hierarchy.flush_dirty(Origin.FLUSH,
                          on_accepted=lambda n: results.update(n=n))
    engine.run_until_idle()
    assert results["n"] == 4
    assert sorted(port.writes) == [0, 64, 128, 192]
    assert hierarchy.dirty_block_count() == 0
    # Blocks stay resident: re-access is an L1 hit.
    t0 = engine.now
    assert _access(engine, hierarchy, 0, False) - t0 == 4


def test_flush_empty_is_immediate(setup):
    _engine, hierarchy, _port, _stats, _config = setup
    results = {}
    hierarchy.flush_dirty(Origin.FLUSH,
                          on_accepted=lambda n: results.update(n=n),
                          on_initiated=lambda n: results.update(i=n))
    assert results == {"n": 0, "i": 0}


def test_flush_initiation_precedes_acceptance_timing(setup):
    engine, hierarchy, _port, _stats, _config = setup
    for i in range(8):
        _access(engine, hierarchy, i * 64, True)
    times = {}
    hierarchy.flush_dirty(
        Origin.FLUSH,
        on_accepted=lambda n: times.setdefault("accepted", engine.now),
        on_initiated=lambda n: times.setdefault("initiated", engine.now))
    engine.run_until_idle()
    assert "initiated" in times and "accepted" in times


def test_dirty_eviction_reaches_memory(setup):
    engine, hierarchy, port, _stats, config = setup
    # Write enough distinct blocks to overflow every level of the tiny
    # test hierarchy; dirty victims must eventually reach the port.
    total_blocks = (config.l1.size_bytes + config.l2.size_bytes
                    + config.l3.size_bytes) // 64 + 64
    for i in range(total_blocks):
        _access(engine, hierarchy, i * 64, True)
    assert port.writes, "expected dirty L3 victims to be written back"


def test_dirty_pressure_callback_fires(setup):
    engine, hierarchy, _port, _stats, _config = setup
    fired = []
    hierarchy.set_dirty_pressure(3, lambda: fired.append(True))
    for i in range(5):
        _access(engine, hierarchy, i * 64, True)
    assert fired


def test_invalidate_all(setup):
    engine, hierarchy, _port, _stats, _config = setup
    _access(engine, hierarchy, 0, True)
    hierarchy.invalidate_all()
    assert hierarchy.dirty_block_count() == 0
    # Next access misses again.
    misses_before = hierarchy.l1.misses
    _access(engine, hierarchy, 0, False)
    assert hierarchy.l1.misses > misses_before
