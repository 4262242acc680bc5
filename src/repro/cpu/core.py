"""The in-order CPU core.

Executes an op trace against the cache hierarchy: non-memory
instructions retire one per cycle; loads and stores are blocking and
split into block-granularity cache accesses, issued one after another
(an in-order core has one access in flight).  The core exposes the
stall interface the consistency controllers use at epoch boundaries
(``stall_at_next_boundary`` / ``resume``), and attributes every stalled
cycle to a cause in the shared :class:`StatsCollector`.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from ..config import SystemConfig
from ..errors import SimulationError
from ..sim.engine import Engine
from ..stats.collector import StatsCollector
from ..cache.hierarchy import CacheHierarchy
from .state import CpuState
from .trace import Op, OpKind

_WORK, _WRITE, _TXN, _PERSIST = (OpKind.WORK, OpKind.WRITE, OpKind.TXN,
                                 OpKind.PERSIST)


class Core:
    """Single in-order core at one instruction per cycle."""

    def __init__(self, engine: Engine, config: SystemConfig,
                 hierarchy: CacheHierarchy, stats: StatsCollector) -> None:
        self.engine = engine
        self.config = config
        self.hierarchy = hierarchy
        self.stats = stats
        self._block_shift = config.block_bytes.bit_length() - 1
        self.state = CpuState(config.cpu_state_bytes)

        # Cursor of the load or store in flight: whether one is, the
        # next block number to issue, the last one it touches, and
        # whether it stores.
        self._in_access = False
        self._next_block = 0
        self._last_block = -1
        self._is_write = False

        self._trace: Optional[Iterator[Op]] = None
        self._on_finish: Optional[Callable[[], None]] = None
        self.finished = False

        # §6 explicit-persistence instruction: the memory system's
        # durability barrier, wired up by the system factory (None on
        # systems where persistence is free/meaningless).
        self.persist_port: Optional[Callable[[Callable[[], None]], None]] = None
        self._persist_waiting = False

        self._stalled = False
        self._stall_reason: Optional[str] = None
        self._stall_start = 0
        self._pending_stall: Optional[Callable[[], None]] = None
        self._at_boundary = True    # not mid-instruction
        self._killed = False
        # No step is scheduled and no instruction is in flight.  Only a
        # parked core is woken, so a checkpoint resume and a persist
        # completion landing together start one instruction stream.
        self._parked = True

    # --- driving ----------------------------------------------------------

    def run_trace(self, trace: Iterator[Op],
                  on_finish: Callable[[], None]) -> None:
        """Start executing ``trace``; ``on_finish`` fires after the last op."""
        if self._trace is not None:
            raise SimulationError("core is already running a trace")
        self._trace = iter(trace)
        self._on_finish = on_finish
        self._parked = False
        self.engine.schedule(0, self._step)

    def _step(self) -> None:
        """Run the core until it has to wait: the one op loop.

        Only ever an engine callback, so each place where the core's
        next event would be scheduled (after a WORK or TXN op, a cache
        hit, a zero-size access, a retiring load or store) first asks
        :meth:`Engine.advance` to fire that event in place, and carries
        on when it does.  Each pass of the loop is one event of the
        one-event-per-step core.  It fires mid-access (``_in_access``)
        when a block's cache hit completes, or at an instruction
        boundary.
        """
        engine = self.engine
        while True:
            if self._in_access:
                block = self._next_block
                if block > self._last_block:
                    self._in_access = False
                    delay = 1                   # the load or store retires
                else:
                    self._next_block = block + 1
                    delay = self.hierarchy.access(block << self._block_shift,
                                                  self._is_write,
                                                  self._block_done)
                    if delay is None:
                        return                  # a miss: _block_done resumes
            else:
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
                self._at_boundary = False
                kind = op[0]
                if kind is _WORK:
                    delay = op[2]
                    self.stats.instructions += delay
                    self.state.version += 1       # CpuState.advance, inlined
                elif kind is _TXN:
                    self.stats.transactions += 1
                    delay = 0
                elif kind is _PERSIST:
                    self.stats.instructions += 1
                    # The persist instruction itself retires; the core
                    # then waits (at an instruction boundary, so epoch
                    # flushes can proceed) until the memory system
                    # reports durability.
                    self._at_boundary = True
                    if self.persist_port is not None:
                        self._persist_waiting = True
                        self._parked = True
                        self.persist_port(self._persist_done)
                        return
                    delay = 1
                else:
                    self.stats.instructions += 1
                    self.state.version += 1
                    size = op[2]
                    if size > 0:
                        shift = self._block_shift
                        addr = op[1]
                        self._next_block = addr >> shift
                        self._last_block = (addr + size - 1) >> shift
                        self._is_write = kind is _WRITE
                        self._in_access = True
                        continue            # the first block, this cycle
                    delay = 1               # touches no block, still retires
            if not engine.advance(delay):
                engine.schedule(delay, self._step)
                return

    def _block_done(self) -> None:
        """A missed block's fill completed: issue the next block, or
        retire the load or store one cycle later.

        Called inside the memory system's completion, not as an engine
        callback of its own, so it schedules the core's next event
        rather than firing it in place."""
        block = self._next_block
        if block > self._last_block:
            self._in_access = False
            self.engine.schedule(1, self._step)
            return
        self._next_block = block + 1
        latency = self.hierarchy.access(block << self._block_shift,
                                        self._is_write, self._block_done)
        if latency is not None:
            self.engine.schedule(latency, self._step)

    def _persist_done(self) -> None:
        if self._killed:
            return
        self._persist_waiting = False
        if self._parked:
            self._parked = False
            self.engine.schedule(0, self._step)

    # --- stall control (used by consistency controllers) ---------------------

    @property
    def stalled(self) -> bool:
        return self._stalled

    def stall_at_next_boundary(self, reason: str,
                               on_stalled: Callable[[], None]) -> None:
        """Freeze the core at the next instruction boundary.

        ``on_stalled`` fires once the core is actually frozen (it may be
        mid-instruction when asked).  ``reason`` labels the stalled
        cycles in the stats (e.g. ``"flush"`` or ``"checkpoint"``).
        """
        if self._stalled or self._pending_stall is not None:
            raise SimulationError("core already stalled or stalling")
        self._stall_reason = reason
        self._pending_stall = on_stalled
        if self._at_boundary or self.finished:
            self._enter_stall()

    def _enter_stall(self) -> None:
        on_stalled = self._pending_stall
        self._pending_stall = None
        self._stalled = True
        self._stall_start = self.engine.now
        if on_stalled is not None:
            on_stalled()

    @property
    def stall_pending(self) -> bool:
        """A stall was requested but the core is still mid-instruction."""
        return self._pending_stall is not None

    def cancel_stall_request(self) -> None:
        """Withdraw a not-yet-effective stall request."""
        if self._stalled:
            raise SimulationError("cannot cancel: core already stalled")
        self._pending_stall = None
        self._stall_reason = None

    def resume(self) -> None:
        """Unfreeze the core and account the stalled cycles."""
        if not self._stalled:
            raise SimulationError("resume called on a running core")
        self._stalled = False
        reason = self._stall_reason or "unknown"
        self.stats.stall_cycles.add(reason, self.engine.now - self._stall_start)
        self._stall_reason = None
        if self._parked and not self.finished:
            self._parked = False
            self.engine.schedule(0, self._step)

    def change_stall_reason(self, reason: str) -> None:
        """Re-attribute the remainder of the current stall.

        Splits the accounting at 'now': cycles so far go to the old
        reason, subsequent ones to ``reason``.  Used when a flush stall
        turns into a stop-the-world checkpoint stall.
        """
        if not self._stalled:
            raise SimulationError("core is not stalled")
        old = self._stall_reason or "unknown"
        self.stats.stall_cycles.add(old, self.engine.now - self._stall_start)
        self._stall_start = self.engine.now
        self._stall_reason = reason

    # --- crash model ---------------------------------------------------------

    def kill(self) -> None:
        """Stop executing permanently (power loss)."""
        self._killed = True
        self._stalled = True
