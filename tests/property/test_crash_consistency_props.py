"""Property-based crash-consistency: the reproduction's core invariant.

Hypothesis generates arbitrary schedules of writes, epoch boundaries,
simulated-time advances and one crash point; recovery must always
produce exactly the physical image of the last committed epoch
boundary.  This is the executable analogue of the paper's formal
protocol verification [66].
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.journaling import JournalingController
from repro.baselines.shadow import ShadowPagingController
from repro.config import small_test_config
from repro.core.epoch import Phase
from repro.core.recovery import recover_image
from repro.fuzz.runner import check_committed_prefix
from repro.mem.controller import DeviceKind, MemoryController
from repro.sim.engine import Engine
from repro.sim.request import Origin
from repro.stats.collector import StatsCollector

from ..conftest import (MANUAL_EPOCHS, make_direct, pad, run_until,
                        settle, write_block)

BLOCKS = 40


def token(epoch, block, salt):
    return pad(f"s{salt}e{epoch}b{block}".encode())


@st.composite
def schedules(draw):
    salt = draw(st.integers(0, 999))
    epochs = []
    for _ in range(draw(st.integers(1, 4))):
        writes = draw(st.lists(st.integers(0, BLOCKS - 1),
                               min_size=1, max_size=15))
        epochs.append(writes)
    crash_epoch = draw(st.integers(0, len(epochs) - 1))
    crash_after_writes = draw(st.integers(0, 15))
    crash_delay = draw(st.integers(0, 300_000))
    return salt, epochs, crash_epoch, crash_after_writes, crash_delay


@given(schedules())
@settings(max_examples=50, deadline=None)
def test_recovery_always_matches_a_committed_boundary(schedule):
    salt, epochs, crash_epoch, crash_after_writes, crash_delay = schedule
    system = make_direct()
    shadow = {}
    goldens = {-1: {}}
    crashed = False
    for epoch, writes in enumerate(epochs):
        for index, block in enumerate(writes):
            if epoch == crash_epoch and index == crash_after_writes:
                crashed = True
                break
            data = token(epoch, block, salt)
            write_block(system, block, data)
            shadow[block] = data
        if crashed:
            break
        run_until(system.engine,
                  lambda: system.ctl.epochs.phase is Phase.EXECUTING)
        assert not system.ctl._deferred_writes
        system.ctl.validate()
        system.ctl.force_epoch_end("prop")
        run_until(system.engine,
                  lambda e=epoch: system.ctl.epochs.active_epoch > e)
        goldens[epoch] = dict(shadow)
    settle(system.engine, crash_delay)
    system.ctl.crash()
    recovered = system.ctl.recover()
    assert recovered.epoch in goldens
    golden = goldens[recovered.epoch]
    for block in range(BLOCKS):
        expected = golden.get(block, bytes(64))
        assert recovered.visible_block(block) == expected, (
            f"block {block} mismatch after recovery to epoch "
            f"{recovered.epoch}")


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_random_mixed_workload_with_hot_pages_recovers(seed):
    """Denser variant: includes a hot page so the page-writeback and
    cooperation paths participate in the crash schedule."""
    rng = random.Random(seed)
    system = make_direct()
    per_page = system.config.blocks_per_page
    shadow = {}
    goldens = {-1: {}}
    num_epochs = rng.randrange(1, 4)
    for epoch in range(num_epochs):
        for _ in range(rng.randrange(3, 10)):
            block = rng.randrange(BLOCKS)
            data = token(epoch, block, seed % 1000)
            write_block(system, block, data)
            shadow[block] = data
        # Dirty a full hot page each epoch (promotion after epoch 0).
        first = 2 * per_page
        for offset in range(per_page):
            data = token(epoch, first + offset, seed % 1000)
            write_block(system, first + offset, data)
            shadow[first + offset] = data
        run_until(system.engine,
                  lambda: system.ctl.epochs.phase is Phase.EXECUTING)
        system.ctl.force_epoch_end("prop")
        run_until(system.engine,
                  lambda e=epoch: system.ctl.epochs.active_epoch > e)
        goldens[epoch] = dict(shadow)
    settle(system.engine, rng.randrange(500_000))
    system.ctl.crash()
    recovered = system.ctl.recover()
    assert recovered.epoch in goldens
    golden = goldens[recovered.epoch]
    for block in list(range(BLOCKS)) + list(range(2 * per_page,
                                                  3 * per_page)):
        expected = golden.get(block, bytes(64))
        assert recovered.visible_block(block) == expected


# ---------------------------------------------------------------------
# Stop-the-world baselines: the same invariant, membership-style
# ---------------------------------------------------------------------

_BASELINES = {
    "journal": JournalingController,
    "shadow": ShadowPagingController,
}


def make_baseline(kind):
    config = small_test_config(epoch_cycles=MANUAL_EPOCHS)
    engine = Engine()
    stats = StatsCollector(config.block_bytes)
    memctrl = MemoryController(engine, config, stats)
    controller = _BASELINES[kind](engine, config, memctrl, stats)
    controller.start()
    return SimpleNamespace(engine=engine, config=config, stats=stats,
                           memctrl=memctrl, ctl=controller)


@pytest.mark.parametrize("kind", sorted(_BASELINES))
@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_baseline_recovery_matches_a_committed_boundary(kind, seed):
    """Recovery from the baselines' own records lands exactly on the
    newest committed boundary.  Redo journaling commits early — once
    its log is durable the in-flight boundary is recoverable by replay
    — so for it the pending boundary is also legal."""
    rng = random.Random(seed)
    system = make_baseline(kind)
    shadow = {}
    goldens = {-1: {}}               # boundary image per epoch
    committed = -1
    num_epochs = rng.randrange(1, 4)
    crash_epoch = rng.randrange(num_epochs)
    crash_delay = rng.randrange(400_000)
    for epoch in range(num_epochs):
        for _ in range(rng.randrange(3, 12)):
            block = rng.randrange(BLOCKS)
            data = token(epoch, block, seed % 1000)
            system.ctl.write_block(block * 64, Origin.CPU, data=data)
            shadow[block] = data
        settle(system.engine)        # quiesce demand writes (no CPU
        run_until(system.engine,     # stall exists in direct driving)
                  lambda: system.ctl.epochs.phase is Phase.EXECUTING)
        pending = system.ctl.epochs.active_epoch
        goldens[pending] = dict(shadow)
        system.ctl.force_epoch_end("prop")
        if epoch == crash_epoch:
            settle(system.engine, crash_delay)   # maybe mid-checkpoint
            break
        run_until(system.engine,
                  lambda b=pending: system.ctl.committed_epoch >= b)
        committed = pending
    if system.ctl.committed_epoch >= pending:   # committed before the crash
        committed = pending
    system.ctl.crash()
    recovered = recover_image(system.config,
                              system.memctrl.functional_store(DeviceKind.NVM))
    accepted = [committed, pending] if kind == "journal" else [committed]
    failure = check_committed_prefix(
        recovered.epoch, recovered.snapshot_physical(BLOCKS), goldens,
        accepted, 64)
    assert not failure, f"{kind} (seed {seed}): {failure}"
