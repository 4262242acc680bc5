"""The shipped core against its one-event-per-step oracle.

``Core._step`` fires the core's own next event in place with
``Engine.advance`` whenever no queued event precedes it
(docs/PERFORMANCE.md, "Inline core steps").  :class:`ScheduledCore`
(``scheduled_core.py``) schedules every one of those events instead, as
the core did before.  Both drive a real cache hierarchy over a real
memory system, so cache misses interleave with memory completions, and
competing engine events land on the same cycles as core steps.  Every
block access, every competing event's cycle and order, what each
``run`` call returns, ``events_fired``, ``now`` and ``summary()`` must
be identical, or the inline path has changed simulated behaviour.
"""

from __future__ import annotations

from typing import Dict, List
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_test_config
from repro.cpu.core import Core
from repro.cpu.trace import Op, OpKind, txn, work
from repro.errors import ReproError
from repro.harness import systems
from repro.harness.systems import build_system

from .scheduled_core import ScheduledCore

#: Systems with real epochs, flushes and persist barriers (thynvm,
#: journal) and one whose persist barrier completes synchronously and
#: whose core the test stalls directly (ideal_nvm).
SYSTEMS = ("thynvm", "journal", "ideal_nvm")
FOOTPRINT = 96 * 1024      # past the 64 KiB L3, so loads miss


def _drive(core_class, system: str, traces: List[List[Op]], noise,
           echoes, chunks, epoch_cycles: int) -> Dict[str, object]:
    """Run ``traces`` (one per core) with the ``noise`` events queued,
    in ``chunks`` of ``run(until=..., max_events=...)`` and a drain.

    ``echoes`` maps an access's number to a delay: that access queues a
    competing event that many cycles ahead, which lands on the cycle of
    the core's next step when the delay is a hit latency."""
    # A small BTT lowers ThyNVM's dirty-pressure watermark to 5
    # blocks, so stores end epochs early through the cache.
    config = small_test_config(num_cores=len(traces), btt_entries=8,
                               epoch_cycles=epoch_cycles)
    with mock.patch.object(systems, "Core", core_class):
        machine = build_system(system, config)
    engine, memsys = machine.engine, machine.memsys
    log: List[tuple] = []
    hierarchies = (machine.cluster.hierarchies if machine.cluster
                   else [machine.hierarchy])
    for index, hierarchy in enumerate(hierarchies):
        def access(block_addr, is_write, on_done, index=index,
                   real=hierarchy.access):
            echo = echoes.get(len(log))
            log.append((index, engine.now, block_addr, is_write))
            if echo is not None:
                engine.schedule(echo, fire, -len(log), "tick", 0)
            return real(block_addr, is_write, on_done)
        hierarchy.access = access

    core = machine.core
    stalls = machine.cluster if machine.cluster else core

    def fire(number: int, action: str, arg: int) -> None:
        log.append(("noise", number, engine.now))
        if action == "chain":
            engine.schedule(arg, fire, number + 1000, "tick", 0)
        elif action == "epoch" and not memsys.crashed:
            memsys.force_epoch_end()
        elif action == "stall" and system == "ideal_nvm":
            if not (core.stalled or core.stall_pending):
                stalls.stall_at_next_boundary(
                    "flush", lambda: engine.schedule(arg, stalls.resume))
        elif action == "crash" and not memsys.crashed:
            memsys.crash()

    for number, (at, action, arg) in enumerate(noise):
        engine.schedule_at(at, fire, number, action, arg)

    remaining = [len(traces)]

    def drained() -> None:
        log.append(("drained", engine.now))
        memsys.stop()

    def finished() -> None:
        log.append(("finished", engine.now))
        remaining[0] -= 1
        if remaining[0] == 0:
            memsys.drain(drained)

    memsys.start()
    for each_core, trace in zip(machine.cores, traces):
        each_core.run_trace(iter(trace), finished)
    returns: List[object] = []
    try:
        for until, max_events in chunks:
            returns.append(engine.run(
                until=None if until is None else engine.now + until,
                max_events=max_events))
        returns.append(engine.run(max_events=20_000))
    except ReproError as error:
        returns.append(type(error).__name__)
    machine.stats.end_cycle = engine.now
    return {"log": log, "returns": returns,
            "events": engine.events_fired, "now": engine.now,
            "pending": engine.pending_events,
            "finished": [each.finished for each in machine.cores],
            "summary": machine.stats.summary(),
            "stalls": machine.stats.stall_cycles.as_dict()}


_memory_op = st.builds(
    Op, st.sampled_from((OpKind.READ, OpKind.WRITE)),
    st.integers(min_value=0, max_value=FOOTPRINT),
    st.integers(min_value=1, max_value=260))
# Built directly, as a trace may: a zero-size access touches no block,
# and WORK(0) retires in the same cycle.
_edge_op = st.one_of(
    st.builds(Op, st.sampled_from((OpKind.READ, OpKind.WRITE)),
              st.integers(min_value=0, max_value=4096), st.just(0)),
    st.just(Op(OpKind.WORK, 0, 0)))
_other_op = st.one_of(
    st.integers(min_value=1, max_value=40).map(work),
    st.just(txn()),
    st.just(Op(OpKind.PERSIST)))
_trace = st.lists(st.one_of(_memory_op, _memory_op, _memory_op, _edge_op,
                            _other_op), min_size=10, max_size=80)
_noise = st.lists(
    st.tuples(st.integers(min_value=0, max_value=12_000),
              st.sampled_from(("tick", "chain", "chain", "chain", "epoch",
                               "epoch", "stall", "stall", "stall", "crash")),
              st.integers(min_value=0, max_value=6)),
    max_size=10)
# Delays that land on a core step: 0 and 1, the L1, L2 and L3 hit
# latencies of the small test configuration, and one past each.
_echoes = st.dictionaries(
    st.integers(min_value=0, max_value=40),
    st.sampled_from((0, 1, 4, 5, 16, 17, 44, 45)), max_size=12)
_chunks = st.lists(
    st.tuples(st.one_of(st.none(), st.integers(min_value=0, max_value=600)),
              st.one_of(st.none(), st.integers(min_value=1, max_value=40))),
    max_size=5)


@given(system=st.sampled_from(SYSTEMS),
       traces=st.lists(_trace, min_size=1, max_size=2),
       noise=_noise, echoes=_echoes, chunks=_chunks,
       epoch_cycles=st.sampled_from((1_500, 6_000, 10 ** 9)))
@settings(max_examples=200, deadline=None)
def test_inline_core_matches_scheduled_oracle(system, traces, noise, echoes,
                                              chunks, epoch_cycles):
    inputs = (system, traces, noise, echoes, chunks, epoch_cycles)
    assert _drive(Core, *inputs) == _drive(ScheduledCore, *inputs)

