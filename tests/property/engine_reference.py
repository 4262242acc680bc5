"""The event engine's contract over one sorted list: the oracle for
``repro.sim.engine.Engine``.

The engine keeps a binary heap of ``[time, seq, callback, args]``
entries, leaves cancelled entries in it to be skipped when popped, and
derives ``pending_events`` from the heap length and a counter.
:class:`ListEngine` keeps the same entries in a list sorted by
``(time, seq)``, skips a cancelled entry when a run reaches it too (so
``advance`` sees it queued until then, as in the heap) and counts the
live entries by a scan, so a test can drive both with one program and
compare what fires, when, and what is counted.  A callback that raises
ends a run in both, and the events that completed before it still
count as fired.

``Engine.advance`` fires a callback's successor in place when the run
loop would pop it next anyway.  :meth:`ListEngine.advance` only
predicts that, from the list and the runs in progress (a run started
inside a callback included); its caller schedules the successor
either way, so the model fires every event through its list, which is
what the engine's in-place firing must be indistinguishable from.
"""

from __future__ import annotations

import bisect
from typing import Callable, List, Optional

from repro.errors import SimulationError


def _check_cycles(value, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SimulationError(f"{what} must be an integer cycle count")


class ListEngine:
    """Sorted-list twin of :class:`~repro.sim.engine.Engine`."""

    def __init__(self) -> None:
        self.events: List[list] = []
        self.seq = 0
        self.now = 0
        self.events_fired = 0
        # One [until, max_events, fired] frame per run in progress,
        # the innermost last.
        self.runs: List[list] = []

    def schedule(self, delay: int, callback: Callable[..., None],
                 *args) -> list:
        _check_cycles(delay, "delay")
        if delay < 0:
            raise SimulationError("cannot schedule into the past")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: int, callback: Callable[..., None],
                    *args) -> list:
        _check_cycles(time, "event time")
        if time < self.now:
            raise SimulationError("cannot schedule into the past")
        self.seq += 1
        entry = [time, self.seq, callback, args]
        bisect.insort(self.events, entry)
        return entry

    def cancel(self, entry: list) -> None:
        if any(queued is entry for queued in self.events):
            entry[2] = None

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        frame = [until, max_events, 0]
        self.runs.append(frame)
        try:
            while self.events:
                if until is not None and self.events[0][0] > until:
                    break
                time, _seq, callback, args = self.events.pop(0)
                if callback is None:
                    continue
                self.now = time
                callback(*args)
                frame[2] += 1
                if max_events is not None and frame[2] >= max_events:
                    return frame[2]
            if until is not None and until > self.now:
                self.now = until
            return frame[2]
        finally:
            self.runs.pop()
            self.events_fired += frame[2]

    def advance(self, delay: int) -> bool:
        """Whether the calling event's successor, due ``delay`` cycles
        from now, is the next event the innermost run fires."""
        if (not self.runs or isinstance(delay, bool)
                or not isinstance(delay, int) or delay < 0):
            return False
        until, max_events, fired = self.runs[-1]
        time = self.now + delay
        # The caller's own event completes as the run's fired + 1st;
        # a cancelled entry still in the list counts as queued.
        return ((until is None or time <= until)
                and (max_events is None or fired + 1 < max_events)
                and all(entry[0] > time for entry in self.events))

    def run_until_idle(self, max_events: int = 100_000_000) -> int:
        fired = self.run(max_events=max_events)
        if self.pending_events:
            raise SimulationError("simulation exceeded max_events")
        return fired

    @property
    def pending_events(self) -> int:
        return sum(entry[2] is not None for entry in self.events)
