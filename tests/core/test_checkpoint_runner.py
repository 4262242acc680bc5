"""Unit tests for the staged checkpoint runner."""

import pytest

from repro.config import small_test_config
from repro.core.checkpoint import CheckpointRun, Job
from repro.mem.controller import DeviceKind, MemoryController
from repro.sim.engine import Engine
from repro.sim.request import MemoryRequest, Origin
from repro.stats.collector import StatsCollector


@pytest.fixture
def setup():
    config = small_test_config()
    engine = Engine()
    stats = StatsCollector(config.block_bytes)
    memctrl = MemoryController(engine, config, stats)
    return engine, memctrl, stats, config


def write_job(addr, data=None):
    return Job(dst_kind=DeviceKind.NVM, dst_addr=addr,
               origin=Origin.CHECKPOINT, data=data)


def copy_job(src, dst):
    return Job(dst_kind=DeviceKind.NVM, dst_addr=dst,
               origin=Origin.CHECKPOINT,
               src_kind=DeviceKind.DRAM, src_addr=src)


def test_empty_run_commits_immediately(setup):
    engine, memctrl, _stats, _config = setup
    committed = []
    run = CheckpointRun(engine, memctrl, [[], [], []], 0,
                        lambda: committed.append(engine.now))
    run.start()
    engine.run_until_idle()
    assert committed
    assert run.duration is not None


def test_stage_barrier_ordering(setup):
    engine, memctrl, stats, _config = setup
    seen_stages = []
    stage1 = [write_job(i * 64) for i in range(8)]
    stage2 = [write_job((100 + i) * 64) for i in range(8)]
    run = CheckpointRun(engine, memctrl, [stage1, stage2], 64 * 10_000,
                        lambda: seen_stages.append("commit"),
                        on_stage=lambda i, role: seen_stages.append((i, role)),
                        roles=("log", "home"))
    run.start()
    engine.run_until_idle()
    assert seen_stages == [(0, "log"), (1, "home"), "commit"]


def test_copy_jobs_move_data(setup):
    engine, memctrl, _stats, _config = setup
    dram = memctrl.functional_store(DeviceKind.DRAM)
    dram.write(128, b"c" * 64)
    committed = []
    run = CheckpointRun(engine, memctrl, [[copy_job(128, 4096)]], 64 * 9000,
                        lambda: committed.append(1))
    run.start()
    engine.run_until_idle()
    assert committed
    nvm = memctrl.functional_store(DeviceKind.NVM)
    assert nvm.read(4096) == b"c" * 64


def test_backpressure_with_many_jobs(setup):
    engine, memctrl, _stats, config = setup
    jobs = [write_job(i * 64) for i in range(300)]   # >> queue capacity
    committed = []
    run = CheckpointRun(engine, memctrl, [jobs], 64 * 10_000,
                        lambda: committed.append(1))
    run.start()
    engine.run_until_idle()
    assert committed


def test_commit_record_is_written_last(setup):
    engine, memctrl, stats, _config = setup
    commit_addr = 64 * 12_000
    committed = []
    run = CheckpointRun(engine, memctrl, [[write_job(0)]], commit_addr,
                        lambda: committed.append(engine.now))
    run.start()
    engine.run_until_idle()
    # Exactly one commit write plus the data write reached NVM.
    assert stats.nvm_writes.get("checkpoint") == 2
    assert committed


def test_abort_silences_callbacks(setup):
    engine, memctrl, _stats, _config = setup
    committed = []
    run = CheckpointRun(engine, memctrl, [[write_job(0)]], 64 * 9000,
                        lambda: committed.append(1))
    run.start()
    run.abort()
    engine.run_until_idle()
    assert not committed


def test_fence_excludes_later_demand_writes(setup):
    """The commit fence must not wait for writes submitted after it."""
    engine, memctrl, _stats, _config = setup
    committed = []
    run = CheckpointRun(engine, memctrl, [[write_job(0)]], 64 * 9000,
                        lambda: committed.append(engine.now))
    run.start()

    # Feed a continuous stream of demand writes.
    def feed(i=0):
        if i > 200 or memctrl.crashed:
            return
        memctrl.submit(DeviceKind.NVM,
                       MemoryRequest((500 + i % 8) * 64, True, Origin.CPU))
        engine.schedule(200, lambda: feed(i + 1))

    feed()
    engine.run_until_idle()
    assert committed, "commit starved by ongoing demand traffic"
