"""The epoch model (§3.1, Figure 3 of the paper).

Program execution is divided into epochs; each has an execution phase
and a checkpointing phase.  ThyNVM overlaps epoch N's checkpointing
phase with epoch N+1's execution phase; an epoch may only start its
checkpointing phase after the previous epoch's checkpoint has fully
committed, so at most one checkpoint is ever in flight.

:class:`EpochManager` owns the timing skeleton: the periodic epoch
timer, overflow-forced early endings, and the "epoch extension" rule
(if the timer fires while the previous checkpoint is still running, the
current epoch simply keeps executing until that checkpoint commits).
The actual checkpoint work is delegated to the owning controller
through the ``on_end`` callback.

Stop-the-world controllers (Figure 3(a)) run the same pipeline with
the overlap removed: the next epoch's execution starts only at the
commit, so they call :meth:`EpochManager.execution_phase_done` and
:meth:`EpochManager.checkpoint_committed` back to back there.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from ..errors import ProtocolError, SimulationError
from ..sim.engine import Engine


class Phase(enum.Enum):
    """Where the epoch pipeline currently stands."""

    EXECUTING = "executing"            # no checkpoint in flight
    ENDING = "ending"                  # CPU flush at the epoch boundary
    CHECKPOINTING = "checkpointing"    # previous epoch's ckpt overlaps execution


INITIAL_PHASE = Phase.EXECUTING

# The epoch pipeline's legal phase changes.  Like ALLOWED_TRANSITIONS
# in versions.py this is a declared table, not documentation: _set_phase
# enforces it at runtime, and tests/property/test_static_dynamic_graph.py
# checks that every phase is reachable and none is dead.
PHASE_TRANSITIONS = {
    Phase.EXECUTING: {Phase.ENDING},          # an epoch end was requested
    Phase.ENDING: {Phase.CHECKPOINTING},      # boundary flush initiated
    Phase.CHECKPOINTING: {Phase.EXECUTING},   # checkpoint committed
}


def validate_phase_transition(old: Phase, new: Phase) -> None:
    """Raise :class:`ProtocolError` if ``old -> new`` is illegal."""
    if old is new:
        return
    if new not in PHASE_TRANSITIONS.get(old, set()):
        raise ProtocolError(
            f"illegal phase transition {old.value} -> {new.value}")


class EpochManager:
    """Sequences epochs and arbitrates when one may end."""

    def __init__(self, engine: Engine, epoch_cycles: int,
                 on_end: Callable[[str], None]) -> None:
        self.engine = engine
        self.epoch_cycles = epoch_cycles
        self._on_end = on_end
        self.active_epoch = 0
        self.ckpt_epoch: Optional[int] = None
        self.phase = INITIAL_PHASE
        self._end_pending: Optional[str] = None
        self._started = False
        self._stopped = False

    # --- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Begin epoch 0 and arm its timer."""
        if self._started:
            raise SimulationError("epoch manager already started")
        self._started = True
        self._arm_timer()

    def _arm_timer(self) -> None:
        self.engine.schedule(self.epoch_cycles, self._timer_fired,
                             self.active_epoch)

    def _timer_fired(self, epoch: int) -> None:
        if self._stopped or epoch != self.active_epoch:
            return   # stopped, or this epoch already ended early (overflow)
        self.request_end("timer")

    def stop(self) -> None:
        """Stop generating epochs (end of a benchmark run or crash)."""
        self._stopped = True

    def _set_phase(self, new: Phase) -> None:
        """Move the pipeline to ``new``, enforcing PHASE_TRANSITIONS."""
        validate_phase_transition(self.phase, new)
        self.phase = new

    # --- ending an epoch ----------------------------------------------------

    def request_end(self, reason: str) -> None:
        """Ask for the active epoch to end.

        If the boundary flush or the previous checkpoint is still in
        progress, the request is remembered and honoured as soon as the
        pipeline allows (epoch extension).
        """
        if self._stopped:
            return
        if self.phase is not Phase.EXECUTING:
            if self._end_pending is None:
                self._end_pending = reason
            return
        self._set_phase(Phase.ENDING)
        self._on_end(reason)

    def execution_phase_done(self) -> None:
        """The boundary flush finished: epoch N's checkpointing phase may
        begin and epoch N+1's execution phase starts now."""
        if self.phase is not Phase.ENDING:
            raise SimulationError("execution_phase_done outside ENDING phase")
        self.ckpt_epoch = self.active_epoch
        self.active_epoch += 1
        self._set_phase(Phase.CHECKPOINTING)
        self._arm_timer()

    def checkpoint_committed(self) -> None:
        """Epoch ``ckpt_epoch``'s checkpoint is durable.

        An end request that arrived meanwhile stays pending until the
        owner calls :meth:`resume_pending`, at its own point of the
        commit sequence."""
        if self.phase is not Phase.CHECKPOINTING or self.ckpt_epoch is None:
            raise SimulationError("commit without a checkpoint in flight")
        self.ckpt_epoch = None
        self._set_phase(Phase.EXECUTING)

    def resume_pending(self) -> bool:
        """Honour the end request that arrived while the pipeline was
        busy (epoch extension).  Returns whether there was one."""
        if self._end_pending is None:
            return False
        reason, self._end_pending = self._end_pending, None
        self.request_end(reason)
        return True

    # --- queries -----------------------------------------------------------------

    @property
    def checkpoint_in_flight(self) -> bool:
        return self.ckpt_epoch is not None or self.phase is Phase.ENDING

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<EpochManager active={self.active_epoch} "
                f"ckpt={self.ckpt_epoch} phase={self.phase.value}>")
