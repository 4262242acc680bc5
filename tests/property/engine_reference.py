"""The event engine's contract over one sorted list: the oracle for
``repro.sim.engine.Engine``.

The engine keeps a binary heap of ``[time, seq, callback, args]``
entries, leaves cancelled entries in it to be skipped when popped, and
derives ``pending_events`` from the heap length.  :class:`ListEngine`
keeps the same entries in a list sorted by ``(time, seq)``, removes a
cancelled entry at once and counts what is left, so a test can drive
both with one program and compare what fires, when, and what is
counted.
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
        for index, queued in enumerate(self.events):
            if queued is entry:
                del self.events[index]
                return

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        fired = 0
        while self.events:
            if until is not None and self.events[0][0] > until:
                break
            time, _seq, callback, args = self.events.pop(0)
            self.now = time
            callback(*args)
            fired += 1
            if max_events is not None and fired >= max_events:
                self.events_fired += fired
                return fired
        if until is not None and until > self.now:
            self.now = until
        self.events_fired += fired
        return fired

    def run_until_idle(self, max_events: int = 100_000_000) -> int:
        fired = self.run(max_events=max_events)
        if self.events:
            raise SimulationError("simulation exceeded max_events")
        return fired

    @property
    def pending_events(self) -> int:
        return len(self.events)
