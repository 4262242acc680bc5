"""The in-order core with one scheduled engine event per step: the
oracle for ``repro.cpu.core.Core``.

The shipped core's ``_step`` is one op loop that fires its own next
event in place with ``Engine.advance`` whenever the engine would pop
that event next anyway (docs/PERFORMANCE.md, "Inline core steps").
:class:`ScheduledCore` restores the path it replaced: ``_step`` runs
one op through ``_execute``, every WORK, TXN, zero-size access and
retire schedules the next ``_step``, and every block that hits in the
caches schedules ``_block_done`` at the hit's latency, as
``CacheHierarchy.access`` did itself before it returned that latency.
Both cores must fire the same events at the same cycles in the same
order, or the inline path has changed simulated behaviour.
"""

from __future__ import annotations

from repro.cpu.core import Core
from repro.cpu.trace import Op, OpKind

_WORK, _WRITE, _TXN, _PERSIST = (OpKind.WORK, OpKind.WRITE, OpKind.TXN,
                                 OpKind.PERSIST)


class ScheduledCore(Core):
    """One engine event per step, hit and retire."""

    def _step(self) -> None:
        if (self._killed or self.finished or self._trace is None
                or self._persist_waiting):
            self._parked = True
            return
        self._at_boundary = True
        if self._pending_stall is not None:
            self._parked = True
            self._enter_stall()
            return
        if self._stalled:
            self._parked = True
            return
        try:
            op = next(self._trace)
        except StopIteration:
            self.finished = True
            if self._on_finish is not None:
                self._on_finish()
            return
        self._execute(op)

    def _execute(self, op: Op) -> None:
        self._at_boundary = False
        kind = op[0]
        if kind is _WORK:
            self.stats.instructions += op[2]
            self.state.version += 1
            self.engine.schedule(op[2], self._step)
        elif kind is _TXN:
            self.stats.transactions += 1
            self.engine.schedule(0, self._step)
        elif kind is _PERSIST:
            self.stats.instructions += 1
            self._at_boundary = True
            if self.persist_port is None:
                self.engine.schedule(1, self._step)
            else:
                self._persist_waiting = True
                self._parked = True
                self.persist_port(self._persist_done)
        else:
            self.stats.instructions += 1
            self.state.version += 1
            size = op[2]
            if size <= 0:
                self.engine.schedule(1, self._step)
                return
            shift = self._block_shift
            addr = op[1]
            first = addr >> shift
            self._next_block = first + 1
            self._last_block = (addr + size - 1) >> shift
            self._is_write = kind is _WRITE
            self._access(first)

    def _access(self, block: int) -> None:
        latency = self.hierarchy.access(block << self._block_shift,
                                        self._is_write, self._block_done)
        if latency is not None:
            self.engine.schedule(latency, self._block_done)

    def _block_done(self) -> None:
        block = self._next_block
        if block > self._last_block:
            self.engine.schedule(1, self._step)
            return
        self._next_block = block + 1
        self._access(block)
