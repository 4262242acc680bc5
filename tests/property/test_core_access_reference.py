"""The core's access path against the per-access list-and-lambda oracle.

The shipped ``Core._step`` finds a load's or store's first and last
block with two shifts, keeps the in-flight access's cursor on the core,
hands the cache hierarchy the bound method ``_block_done`` as a miss's
continuation and fires each hit's completion in place when nothing is
queued ahead of it (docs/PERFORMANCE.md, "Front-end fast path" and
"Inline core steps").  The path the fast path replaced built a block
list per access and a fresh lambda per block; :class:`ListCore` below
restores it on top of the one-event-per-step oracle
(``scheduled_core.py``).  Both cores run the same op sequences over a
hierarchy that records every block access and answers a hit with its
latency or a miss through its continuation after an address-dependent
delay, with stalls and a power cut requested mid-access.  They must
issue identical ``(cycle, block, is_write)`` accesses, fire the same
number of events and leave the same ``summary()``, or the fast paths
have changed simulated behaviour.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.cpu.core import Core
from repro.cpu.trace import Op, OpKind
from repro.sim.engine import Engine
from repro.stats.collector import StatsCollector

from .scheduled_core import ScheduledCore

BLOCK_BYTES = SystemConfig().block_bytes


class ListCore(ScheduledCore):
    """The in-order core with its per-access block list and lambda.

    Only loads and stores take the old path; every other op runs the
    oracle's ``_execute``."""

    def _execute(self, op: Op) -> None:
        if op.kind is not OpKind.READ and op.kind is not OpKind.WRITE:
            super()._execute(op)
            return
        self._at_boundary = False
        is_write = op.kind is OpKind.WRITE
        self.stats.instructions += 1
        self.state.advance()
        blocks = [block * BLOCK_BYTES
                  for block in _iter_blocks(op.addr, op.size)]
        self._access_blocks(blocks, 0, is_write)

    def _access_blocks(self, blocks, index: int, is_write: bool) -> None:
        if index >= len(blocks):
            self.engine.schedule(1, self._step)
            return
        def done() -> None:
            self._access_blocks(blocks, index + 1, is_write)

        latency = self.hierarchy.access(blocks[index], is_write, done)
        if latency is not None:
            self.engine.schedule(latency, done)


def _iter_blocks(addr: int, size: int):
    """Block numbers touched by the byte range ``[addr, addr+size)``."""
    if size <= 0:
        return
    first = addr // BLOCK_BYTES
    last = (addr + size - 1) // BLOCK_BYTES
    yield from range(first, last + 1)


def _latency(block_addr: int) -> int:
    """A deterministic hit or miss latency per block."""
    block = block_addr // BLOCK_BYTES
    return 40 if block % 7 == 0 else 1 + block % 4


class RecordingHierarchy:
    """Records each block access; runs the scripted action for its
    index (the core is then mid-access) before answering: a block
    whose latency is 40 misses and calls back from an engine event,
    any other hits and returns its latency."""

    def __init__(self, engine: Engine,
                 script: Dict[int, Callable[[], None]]) -> None:
        self.engine = engine
        self.script = script
        self.accesses: List[Tuple[int, int, bool]] = []

    def access(self, block_addr: int, is_write: bool,
               on_done: Callable[[], None]) -> None:
        action = self.script.get(len(self.accesses))
        self.accesses.append((self.engine.now, block_addr, is_write))
        if action is not None:
            action()
        latency = _latency(block_addr)
        if latency == 40:
            self.engine.schedule(latency, on_done)
            return None
        return latency


def _run(core_class, ops: List[Op], actions, persist_latency: int):
    """Run ``ops`` on a fresh core of ``core_class``.

    ``actions`` holds ``(access index, kind, hold)``: at that block
    access the core is asked to stall (resumed ``hold`` cycles after it
    stops) or is killed.
    """
    engine = Engine()
    config = SystemConfig()
    stats = StatsCollector(config.block_bytes)
    script: Dict[int, Callable[[], None]] = {}
    hierarchy = RecordingHierarchy(engine, script)
    core = core_class(engine, config, hierarchy, stats)
    core.persist_port = lambda done: engine.schedule(persist_latency, done)

    def stall(hold: int) -> Callable[[], None]:
        def request() -> None:
            if not (core.stalled or core.stall_pending):
                core.stall_at_next_boundary(
                    "flush", lambda: engine.schedule(hold, core.resume))
        return request

    for index, kind, hold in actions:
        script[index] = stall(hold) if kind == "stall" else core.kill
    finished_at: List[int] = []
    core.run_trace(iter(ops), lambda: finished_at.append(engine.now))
    engine.run_until_idle()
    stats.end_cycle = engine.now
    return {"accesses": hierarchy.accesses,
            "events": engine.events_fired,
            "now": engine.now,
            "finished_at": finished_at,
            "summary": stats.summary(),
            "stall_cycles": stats.stall_cycles.as_dict()}


_memory_op = st.builds(
    Op, st.sampled_from((OpKind.READ, OpKind.WRITE)),
    st.integers(min_value=0, max_value=4 * 4096),
    st.integers(min_value=1, max_value=320))
# Built directly, as a trace may: a zero-size access touches no block.
_empty_op = st.builds(
    Op, st.sampled_from((OpKind.READ, OpKind.WRITE)),
    st.integers(min_value=0, max_value=4096), st.just(0))
_other_op = st.one_of(
    st.builds(Op, st.just(OpKind.WORK), st.just(0),
              st.integers(min_value=1, max_value=6)),
    st.just(Op(OpKind.TXN)),
    st.just(Op(OpKind.PERSIST)))
_ops = st.lists(st.one_of(_memory_op, _memory_op, _empty_op, _other_op),
                min_size=1, max_size=40)
_actions = st.lists(
    st.tuples(st.integers(min_value=0, max_value=120),
              st.sampled_from(("stall", "stall", "kill")),
              st.integers(min_value=0, max_value=30)),
    max_size=4, unique_by=lambda action: action[0])


@given(ops=_ops, actions=_actions,
       persist_latency=st.integers(min_value=0, max_value=20))
@settings(max_examples=200, deadline=None)
def test_core_matches_list_and_lambda_reference(ops, actions,
                                                persist_latency):
    assert (_run(Core, ops, actions, persist_latency)
            == _run(ListCore, ops, actions, persist_latency))


def test_core_block_spans():
    """Each access touches every block of ``[addr, addr + size)`` once,
    in address order."""
    for addr, size, blocks in ((0, 64, [0]), (60, 8, [0, 64]),
                               (0, 129, [0, 64, 128]), (0, 0, []),
                               (60, 140, [0, 64, 128, 192])):
        ops = [Op(OpKind.WRITE, addr, size)]
        result = _run(Core, ops, [], 0)
        assert [block for _, block, _ in result["accesses"]] == blocks
        assert result == _run(ListCore, ops, [], 0)


def test_zero_size_access_costs_one_cycle():
    result = _run(Core, [Op(OpKind.READ, 100, 0)], [], 0)
    assert result["accesses"] == []
    assert result["finished_at"] == [1]
    assert result == _run(ListCore, [Op(OpKind.READ, 100, 0)], [], 0)
