"""Unit tests for the in-order core over a scripted memory system."""

import pytest

from repro.config import small_test_config
from repro.cpu.core import Core
from repro.cpu.trace import persist, read, txn, work, write
from repro.cache.hierarchy import CacheHierarchy
from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.request import MemoryRequest
from repro.stats.collector import StatsCollector


class InstantPort:
    """Memory system that services everything immediately."""

    def __init__(self, engine):
        self.engine = engine

    def read_block(self, addr, origin, callback):
        request = MemoryRequest(addr, False, origin, callback=callback)
        self.engine.schedule(50, lambda: request.complete(self.engine.now))

    def write_block(self, addr, origin, data=None, callback=None,
                    on_accept=None):
        if on_accept is not None:
            on_accept()
        request = MemoryRequest(addr, True, origin, data=data,
                                callback=callback)
        self.engine.schedule(50, lambda: request.complete(self.engine.now))


@pytest.fixture
def setup():
    config = small_test_config()
    engine = Engine()
    stats = StatsCollector()
    hierarchy = CacheHierarchy(engine, config, InstantPort(engine), stats)
    core = Core(engine, config, hierarchy, stats)
    return engine, core, stats


def run(engine, core, ops):
    finished = []
    core.run_trace(iter(ops), lambda: finished.append(engine.now))
    engine.run_until_idle()
    assert finished, "trace did not finish"
    return finished[0]


def test_work_advances_time_one_cycle_per_instruction(setup):
    engine, core, stats = setup
    end = run(engine, core, [work(100)])
    assert end >= 100
    assert stats.instructions == 100


def test_memory_ops_count_as_instructions(setup):
    engine, core, stats = setup
    run(engine, core, [write(0, 64), read(0, 64)])
    assert stats.instructions == 2


def test_txn_counts_transactions(setup):
    engine, core, stats = setup
    run(engine, core, [work(1), txn(), work(1), txn()])
    assert stats.transactions == 2


def test_multiblock_access_splits(setup):
    engine, core, stats = setup
    run(engine, core, [read(0, 256)])   # 4 blocks
    assert stats.cache_misses.get("LLC") == 4


def test_in_order_blocking(setup):
    engine, core, _stats = setup
    # A miss (50-cycle memory) must delay subsequent work.
    t_mem = run(engine, core, [read(0, 64), work(1)])
    assert t_mem > 50


def test_stall_and_resume(setup):
    engine, core, stats = setup
    finished = []
    core.run_trace(iter([work(10), work(10)]),
                   lambda: finished.append(engine.now))
    stalled = []
    core.stall_at_next_boundary("flush", lambda: stalled.append(engine.now))
    engine.run_until_idle()
    assert stalled and not finished      # frozen mid-trace
    core.resume()
    engine.run_until_idle()
    assert finished
    assert stats.stall_cycles.get("flush") == 0  # resumed immediately


def test_stall_accounts_cycles(setup):
    engine, core, stats = setup
    core.run_trace(iter([work(1000)]), lambda: None)
    core.stall_at_next_boundary("checkpoint", lambda: None)
    engine.run_until_idle()
    assert core.stalled
    engine.schedule(500, core.resume)
    engine.run_until_idle()
    assert stats.stall_cycles.get("checkpoint") == 500


def test_double_stall_rejected(setup):
    engine, core, _stats = setup
    core.run_trace(iter([work(10)]), lambda: None)
    core.stall_at_next_boundary("a", lambda: None)
    with pytest.raises(SimulationError):
        core.stall_at_next_boundary("b", lambda: None)


def test_cancel_pending_stall(setup):
    engine, core, _stats = setup
    finished = []
    core.run_trace(iter([read(0, 64)]), lambda: finished.append(1))
    engine.run(max_events=1)             # mid-instruction
    core.stall_at_next_boundary("x", lambda: None)
    if not core.stalled:
        assert core.stall_pending
        core.cancel_stall_request()
        engine.run_until_idle()
        assert finished
    else:
        core.resume()
        engine.run_until_idle()
        assert finished


def test_change_stall_reason_splits_accounting(setup):
    engine, core, stats = setup
    core.run_trace(iter([work(10)]), lambda: None)
    core.stall_at_next_boundary("flush", lambda: None)
    engine.run_until_idle()
    start = engine.now
    engine.schedule(100, lambda: core.change_stall_reason("checkpoint"))
    engine.run_until_idle()
    engine.schedule(300, core.resume)
    engine.run_until_idle()
    assert stats.stall_cycles.get("flush") == 100
    assert stats.stall_cycles.get("checkpoint") == 300


def test_persist_and_resume_in_one_event_wake_the_core_once(setup):
    """A stop-the-world barrier stalls the core at the persist, then
    completes the persist and resumes the core in one event.  The core
    must wake once and retire the two work ops one after the other, not
    run them as two concurrent instruction streams."""
    engine, core, stats = setup

    def barrier(done):
        def commit():
            done()
            core.resume()
        core.stall_at_next_boundary(
            "checkpoint", lambda: engine.schedule(100, commit))

    core.persist_port = barrier
    assert run(engine, core, [persist(), work(10), work(10)]) == 120
    assert stats.stall_cycles.get("checkpoint") == 100
    assert stats.instructions == 21


def test_kill_stops_execution(setup):
    engine, core, stats = setup
    core.run_trace(iter([work(10 ** 6)]), lambda: None)
    engine.run(max_events=1)
    core.kill()
    engine.run_until_idle()
    assert stats.instructions < 10 ** 6 or not core.finished


def test_state_version_advances(setup):
    engine, core, _stats = setup
    before = core.state.version
    run(engine, core, [work(5), write(0, 8)])
    assert core.state.version > before
    snap = core.state.capture()
    core.state.advance()
    assert core.state.version == snap.version + 1
    core.state.restore_from(snap)
    assert core.state.version == snap.version
