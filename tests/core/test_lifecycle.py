"""The epoch lifecycle contract every epoch controller shares.

ThyNVM overlaps a checkpoint with the next epoch; journaling and shadow
paging stop the world.  Both run on :class:`EpochController`, so the
same observable contract holds for all of them, checked here through
the shared surface only (``epochs``, ``committed_epoch``,
``force_epoch_end``, ``persist_barrier``, ``drain``, ``DRAIN_ROUNDS``).
"""

import pytest

from repro.baselines.base import StopTheWorldController
from repro.config import small_test_config
from repro.core.controller import ThyNVMController
from repro.core.epoch import Phase
from repro.core.lifecycle import EpochController
from repro.errors import SimulationError
from repro.harness.systems import build_controller
from repro.mem.controller import DeviceKind, MemoryController
from repro.sim.engine import Engine
from repro.sim.request import MemoryRequest, Origin
from repro.stats.collector import StatsCollector

from ..conftest import MANUAL_EPOCHS, pad, run_until


@pytest.fixture(params=["thynvm", "journal", "shadow"])
def ctl(request):
    config = small_test_config(epoch_cycles=MANUAL_EPOCHS)
    engine = Engine()
    stats = StatsCollector(config.block_bytes)
    memctrl = MemoryController(engine, config, stats)
    controller = build_controller(request.param, engine, config, memctrl,
                                  stats)
    assert isinstance(controller, EpochController)
    controller.start()
    for block in range(4):
        controller.write_block(block * 64, Origin.CPU,
                               data=pad(bytes([block + 1])))
    engine.run(until=engine.now + 50_000)
    return controller


def idle(ctl):
    """Run until no checkpoint is in flight, then well past it, so a
    stray extra epoch end would have committed too."""
    run_until(ctl.engine, lambda: ctl.epochs.phase is Phase.EXECUTING)
    ctl.engine.run(until=ctl.engine.now + 2_000_000)


def test_end_request_mid_checkpoint_is_honoured_once(ctl):
    ctl.force_epoch_end("test")
    assert ctl.epochs.phase is not Phase.EXECUTING
    # Both arrive mid-checkpoint; only the first is remembered.
    ctl.force_epoch_end("overflow")
    ctl.force_epoch_end("overflow")
    run_until(ctl.engine, lambda: ctl.committed_epoch >= 0)
    idle(ctl)
    assert ctl.committed_epoch == 1
    assert ctl.stats.epochs_completed == 2
    assert ctl.stats.epochs_forced_by_overflow == 1
    assert ctl.epochs.phase is Phase.EXECUTING


def test_persist_barrier_fires_when_its_epoch_commits(ctl):
    target = ctl.epochs.active_epoch
    seen = []
    ctl.persist_barrier(lambda: seen.append(ctl.committed_epoch))
    assert seen == []                   # the barrier ends the epoch first
    run_until(ctl.engine, lambda: seen)
    assert seen == [target]
    idle(ctl)
    assert seen == [target]
    assert ctl.epochs.phase is Phase.EXECUTING


def test_drain_completes_after_the_class_rounds(ctl):
    done = []
    ctl.drain(lambda: done.append(ctl.committed_epoch))
    run_until(ctl.engine, lambda: done)
    rounds = type(ctl).DRAIN_ROUNDS
    assert done == [rounds - 1]
    assert ctl.stats.epochs_completed == rounds
    idle(ctl)
    assert ctl.epochs.phase is Phase.EXECUTING


def test_drain_rounds_per_lifecycle():
    assert ThyNVMController.DRAIN_ROUNDS == 2
    assert StopTheWorldController.DRAIN_ROUNDS == 1


def test_one_block_write_run_is_a_single_with_its_payload(ctl):
    """A one-block write run (a page eviction or assembly when a page is
    one block) is issued as the single request it stands for: the block
    stores its payload and the callback fires once, as a run's block's
    does.  ``MemoryRequest.bulk`` refuses to build a one-block run,
    which the controller would serve as a single without its payload."""
    calls = []
    payload = pad(b"one block")
    addr = 1000 * 64
    ctl._issue_bulk_write_traffic(DeviceKind.NVM, addr, Origin.MIGRATION, 1,
                                  64, data=payload,
                                  callback=lambda *args: calls.append(args))
    ctl.engine.run(until=ctl.engine.now + 100_000)
    assert ctl.memctrl.functional_store(DeviceKind.NVM).read(addr) == payload
    assert len(calls) == 1 and calls[0][1:] == (0, None)
    with pytest.raises(SimulationError):
        MemoryRequest.bulk(addr, True, Origin.MIGRATION, 1, 64,
                           carries_data=True)
