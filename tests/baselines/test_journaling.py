"""Functional tests for the journaling baseline."""

from types import SimpleNamespace

import pytest

from repro.baselines.journaling import JournalingController
from repro.config import small_test_config
from repro.core.recovery import recover_image
from repro.mem.controller import DeviceKind, MemoryController
from repro.sim.engine import Engine
from repro.sim.request import Origin
from repro.stats.collector import StatsCollector

from ..conftest import MANUAL_EPOCHS, pad, run_until, settle


@pytest.fixture
def system():
    config = small_test_config(epoch_cycles=MANUAL_EPOCHS)
    engine = Engine()
    stats = StatsCollector(config.block_bytes)
    memctrl = MemoryController(engine, config, stats)
    controller = JournalingController(engine, config, memctrl, stats)
    controller.start()
    return SimpleNamespace(engine=engine, config=config, stats=stats,
                           memctrl=memctrl, ctl=controller)


def write(system, block, data):
    system.ctl.write_block(block * 64, Origin.CPU, data=pad(data))


def end_epoch(system):
    epoch = system.ctl.epochs.active_epoch
    system.ctl.force_epoch_end("test")
    run_until(system.engine, lambda: system.ctl.committed_epoch >= epoch)


def recover(system):
    """Recover from the NVM store alone, as every crash check does."""
    return recover_image(system.config,
                         system.memctrl.functional_store(DeviceKind.NVM))


def test_writes_buffer_in_dram(system):
    write(system, 3, b"buffered")
    settle(system.engine, 2_000)
    assert system.stats.nvm_writes.total() == 0
    assert system.ctl.visible_block_bytes(3) == pad(b"buffered")


def test_checkpoint_writes_twice(system):
    for block in range(8):
        write(system, block, bytes([block]))
    settle(system.engine, 5_000)
    end_epoch(system)
    # Redo journaling: one log write + one in-place write per block
    # (plus CPU state and the commit record).
    assert system.stats.nvm_writes.get("journal") == 8
    assert system.stats.nvm_writes.get("checkpoint") >= 8
    # In-place data is now at home.
    nvm = system.memctrl.functional_store(DeviceKind.NVM)
    for block in range(8):
        assert nvm.read(system.ctl.layout.home_block_addr(block)) == \
            pad(bytes([block]))


def test_buffer_coalesces_rewrites(system):
    for _ in range(5):
        write(system, 3, b"same-block")
    settle(system.engine, 5_000)
    end_epoch(system)
    assert system.stats.nvm_writes.get("journal") == 1


def test_crash_before_log_commit_rolls_back(system):
    write(system, 3, b"committed")
    end_epoch(system)
    write(system, 3, b"lost")
    settle(system.engine, 1_000)
    system.ctl.crash()
    recovered = recover(system)
    assert recovered.epoch == 0
    assert recovered.visible_block(3) == pad(b"committed")


def test_crash_after_log_commit_replays_log(system):
    write(system, 3, b"v1")
    end_epoch(system)
    write(system, 3, b"v2")
    settle(system.engine, 2_000)
    # Crash precisely when the log stage becomes durable, before the
    # in-place writes commit: recovery must replay the log.
    original = system.ctl._on_ckpt_stage

    def crash_after_log(stage_index, role):
        original(stage_index, role)
        if role == "log":
            system.ctl.crash()

    system.ctl._on_ckpt_stage = crash_after_log
    system.ctl.force_epoch_end("test")
    settle(system.engine, 50_000_000)
    recovered = recover(system)
    # The durable log record commits epoch 1 before its commit record.
    assert recovered.epoch == 1
    assert recovered.meta.log_slots
    assert recovered.visible_block(3) == pad(b"v2")
    assert system.ctl.recovery_cycles_estimate() > 0


def test_recovery_always_some_epoch_boundary(system):
    goldens = {}
    for epoch in range(3):
        for block in range(6):
            write(system, block, f"e{epoch}b{block}".encode())
        settle(system.engine, 3_000)
        end_epoch(system)
        goldens[epoch] = {
            block: pad(f"e{epoch}b{block}".encode()) for block in range(6)}
    write(system, 0, b"uncommitted")
    settle(system.engine, 500)
    system.ctl.crash()
    recovered = recover(system)
    assert recovered.epoch == 2
    assert recovered.snapshot_physical(6) == goldens[2]


def test_overflow_forces_epoch(system):
    capacity = system.ctl.buffer_capacity
    for block in range(capacity + 8):
        write(system, block, b"x")
        settle(system.engine, 200)
    run_until(system.engine, lambda: system.stats.epochs_completed >= 1)
    assert system.stats.epochs_forced_by_overflow >= 1
