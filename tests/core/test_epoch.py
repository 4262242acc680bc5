"""Unit tests for the epoch manager."""

import pytest

from repro.core.epoch import EpochManager, Phase
from repro.errors import SimulationError
from repro.sim.engine import Engine


def make(epoch_cycles=1000):
    engine = Engine()
    ended = []
    manager = EpochManager(engine, epoch_cycles, lambda r: ended.append(r))
    return engine, manager, ended


def test_timer_requests_end():
    engine, manager, ended = make(1000)
    manager.start()
    engine.run(until=999)
    assert not ended
    engine.run(until=1001)
    assert ended == ["timer"]
    assert manager.phase is Phase.ENDING


def test_pipeline_sequence():
    engine, manager, ended = make()
    manager.start()
    manager.request_end("manual")
    assert manager.phase is Phase.ENDING
    manager.execution_phase_done()
    assert manager.phase is Phase.CHECKPOINTING
    assert manager.active_epoch == 1
    assert manager.ckpt_epoch == 0
    manager.checkpoint_committed()
    assert manager.phase is Phase.EXECUTING
    assert manager.ckpt_epoch is None


def test_end_deferred_while_checkpointing():
    engine, manager, ended = make()
    manager.start()
    manager.request_end("a")
    manager.execution_phase_done()
    manager.request_end("b")            # previous ckpt still in flight
    manager.request_end("c")            # only the first one is kept
    assert ended == ["a"]
    manager.checkpoint_committed()
    assert ended == ["a"]               # the owner picks when to resume
    assert manager.resume_pending()
    assert ended == ["a", "b"]          # honoured at commit (extension)
    assert manager.phase is Phase.ENDING
    assert not manager.resume_pending()


def test_stale_timer_ignored():
    engine, manager, ended = make(1000)
    manager.start()
    manager.request_end("early")        # epoch 0 ends before its timer
    manager.execution_phase_done()      # also arms epoch 1's timer (t=1000)
    manager.checkpoint_committed()
    # At t=1000 BOTH timer events fire: epoch 0's (stale, ignored) and
    # epoch 1's (legitimate).  Exactly one end request must result.
    engine.run(until=1001)
    assert ended == ["early", "timer"]
    manager.execution_phase_done()
    manager.checkpoint_committed()
    engine.run(until=2002)              # epoch 2's own timer only
    assert ended == ["early", "timer", "timer"]


def test_stop_blocks_everything():
    engine, manager, ended = make(1000)
    manager.start()
    manager.stop()
    engine.run(until=5000)
    assert not ended
    manager.request_end("manual")
    assert not ended


def test_illegal_sequences_raise():
    _engine, manager, _ended = make()
    manager.start()
    with pytest.raises(SimulationError):
        manager.execution_phase_done()       # not ENDING
    with pytest.raises(SimulationError):
        manager.checkpoint_committed()       # nothing in flight
    with pytest.raises(SimulationError):
        manager.start()                      # double start
