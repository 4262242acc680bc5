"""The discrete-event simulation engine.

A thin, fast wrapper around a binary heap of scheduled events.  Time
is measured in CPU cycles (integers).  The engine plays the role gem5's
event queue plays in the paper's infrastructure.

Hot-path design notes (docs/PERFORMANCE.md):

* an event is a plain ``[time, seq, callback, args]`` list, built and
  pushed by :meth:`Engine.schedule` and returned to the caller as its
  handle.  ``seq`` is a monotonically increasing tie-breaker, so events
  scheduled earlier fire earlier at the same timestamp and every heap
  sift comparison is a C-level list comparison that stops at the
  unique sequence number;
* callbacks take positional arguments stored on the event, so services
  schedule bound methods instead of allocating per-service closures;
* :meth:`Engine.cancel` clears an entry's callback slot in place and
  the run loop skips such entries when it pops them.  Its one caller
  is ``MemoryController.crash()``, which cancels at most one in-flight
  completion per bank, so cancelled entries are never compacted out of
  the heap: they wait there to be popped.  :attr:`pending_events` is
  the heap length minus the cancelled entries still queued, exact and
  O(1) — backpressure heuristics poll it;
* the run loop *time-skips*: between events the clock jumps straight
  to the next event's timestamp (and a bounded :meth:`run` jumps to
  ``until``), never ticking through idle cycles.  The jump is clamped
  to be monotonic, preserving the invariant that :meth:`schedule_at`
  enforces eagerly — an event time in the past is rejected at the
  offending call site, not when the heap later pops it.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Optional

from ..errors import SimulationError


class Engine:
    """Deterministic single-threaded event loop."""

    def __init__(self) -> None:
        self._queue: list[list] = []
        self._seq = 0
        self.now: int = 0
        self._events_fired = 0
        self._cancelled = 0         # cancelled entries still in the heap

    # --- scheduling ----------------------------------------------------

    def schedule(self, delay: int, callback: Callable[..., None],
                 *args) -> list:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now.

        Returns the event's ``[time, seq, callback, args]`` entry, the
        handle :meth:`cancel` takes.
        """
        if type(delay) is not int and (isinstance(delay, bool)
                                       or not isinstance(delay, int)):
            raise SimulationError(
                f"delay must be an integer cycle count, got "
                f"{type(delay).__name__} ({delay!r})")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq + 1
        self._seq = seq
        entry = [self.now + delay, seq, callback, args]
        heapq.heappush(self._queue, entry)
        return entry

    def schedule_at(self, time: int, callback: Callable[..., None],
                    *args) -> list:
        """Schedule ``callback(*args)`` at absolute cycle ``time``.

        Times in the past are rejected *here*, at the offending call
        site — not later as a confusing "event heap produced a past
        event" failure when the heap pops the event.
        """
        if type(time) is not int and (isinstance(time, bool)
                                      or not isinstance(time, int)):
            raise SimulationError(
                f"event time must be an integer cycle count, got "
                f"{type(time).__name__} ({time!r})")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self.now}")
        seq = self._seq + 1
        self._seq = seq
        entry = [time, seq, callback, args]
        heapq.heappush(self._queue, entry)
        return entry

    def cancel(self, entry: list) -> None:
        """Stop a scheduled event from firing.

        A no-op for an event that already fired or was already
        cancelled.  The identity scan is linear in the heap, which
        holds a handful of events, and cancels happen only at a crash.
        """
        if entry[2] is not None and any(queued is entry
                                        for queued in self._queue):
            entry[2] = None
            self._cancelled += 1

    # --- execution -------------------------------------------------------

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Fire events in order until the queue drains.

        ``until`` stops the run once simulated time would pass that cycle
        (events at exactly ``until`` still fire).  ``max_events`` is a
        safety valve for tests.  Returns the number of events fired.

        Time only moves forward: the end-of-run skip to ``until`` is
        clamped so a bounded run can never rewind the clock below a
        time the engine already reached (which would let
        :meth:`schedule_at` admit events into the rewound window and
        fire them out of order).

        A callback that raises ends the run; :attr:`events_fired` still
        counts every event that completed before it.
        """
        horizon = math.inf if until is None else until
        limit = math.inf if max_events is None else max_events
        fired = 0
        queue = self._queue
        pop = heapq.heappop
        now = self.now
        try:
            while queue:
                if queue[0][0] > horizon:
                    break
                time, _seq, callback, args = pop(queue)
                if callback is None:
                    self._cancelled -= 1
                    continue
                if time < now:
                    raise SimulationError("event heap produced a past event")
                self.now = now = time
                callback(*args)
                fired += 1
                if fired >= limit:
                    return fired
            if until is not None and until > self.now:
                self.now = until
            return fired
        finally:
            self._events_fired += fired

    def run_until_idle(self, max_events: int = 100_000_000) -> int:
        """Run until no events remain (bounded by ``max_events``)."""
        fired = self.run(max_events=max_events)
        if self.pending_events:
            raise SimulationError("simulation exceeded max_events; likely livelock")
        return fired

    # --- introspection -----------------------------------------------------

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next live event, or None when idle.

        The time-skip fast path's target: when everything is idle the
        clock moves straight here on the next :meth:`run` step.
        """
        queue = self._queue
        while queue and queue[0][2] is None:
            heapq.heappop(queue)
            self._cancelled -= 1
        return queue[0][0] if queue else None

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued, O(1).

        Cancelled entries stay in the heap until popped, but they will
        never fire; counting them would make backpressure heuristics
        see dead weight.
        """
        return len(self._queue) - self._cancelled

    @property
    def events_fired(self) -> int:
        """Total events fired since construction."""
        return self._events_fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine now={self.now} pending={self.pending_events}>"
