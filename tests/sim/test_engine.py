"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine


def test_events_fire_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(30, lambda: order.append("c"))
    engine.schedule(10, lambda: order.append("a"))
    engine.schedule(20, lambda: order.append("b"))
    engine.run_until_idle()
    assert order == ["a", "b", "c"]
    assert engine.now == 30


def test_same_time_events_fire_in_schedule_order():
    engine = Engine()
    order = []
    for tag in range(5):
        engine.schedule(7, lambda tag=tag: order.append(tag))
    engine.run_until_idle()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_stops_at_boundary():
    engine = Engine()
    fired = []
    engine.schedule(5, lambda: fired.append(5))
    engine.schedule(15, lambda: fired.append(15))
    engine.run(until=10)
    assert fired == [5]
    assert engine.now == 10
    engine.run_until_idle()
    assert fired == [5, 15]


def test_events_can_schedule_more_events():
    engine = Engine()
    seen = []

    def chain(depth):
        seen.append(depth)
        if depth < 5:
            engine.schedule(1, lambda: chain(depth + 1))

    engine.schedule(0, lambda: chain(0))
    engine.run_until_idle()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert engine.now == 5


def test_cancelled_events_do_not_fire():
    engine = Engine()
    fired = []
    event = engine.schedule(10, lambda: fired.append("cancelled"))
    engine.schedule(5, lambda: fired.append("kept"))
    engine.cancel(event)
    engine.run_until_idle()
    assert fired == ["kept"]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)


def test_schedule_at_past_rejected():
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run_until_idle()
    with pytest.raises(SimulationError):
        engine.schedule_at(5, lambda: None)


def test_run_until_advances_time_with_no_events():
    engine = Engine()
    engine.run(until=1000)
    assert engine.now == 1000


def test_max_events_cap():
    engine = Engine()

    def forever():
        engine.schedule(1, forever)

    engine.schedule(0, forever)
    with pytest.raises(SimulationError):
        engine.run_until_idle(max_events=100)


def test_run_until_idle_ignores_cancelled_leftovers():
    # Stopping at exactly max_events with only cancelled entries left
    # queued is not a livelock: nothing live remains to fire.
    engine = Engine()
    fired = []
    for tag in range(3):
        engine.schedule(1, fired.append, tag)
    engine.cancel(engine.schedule(100, fired.append, "cancelled"))
    assert engine.run_until_idle(max_events=3) == 3
    assert fired == [0, 1, 2]
    assert engine.pending_events == 0
    assert engine.events_fired == 3


@pytest.mark.parametrize("delay", [1.0, 2.5, True])
def test_schedule_rejects_non_integer_delay(delay):
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(delay, lambda: None)


@pytest.mark.parametrize("time", [10.0, 0.5, False])
def test_schedule_at_rejects_non_integer_time(time):
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule_at(time, lambda: None)


def test_pending_events_excludes_cancelled():
    engine = Engine()
    kept = engine.schedule(10, lambda: None)
    doomed = engine.schedule(20, lambda: None)
    assert engine.pending_events == 2
    engine.cancel(doomed)
    assert engine.pending_events == 1
    engine.cancel(kept)
    assert engine.pending_events == 0


def test_pending_events_exact_under_cancel_heavy_schedule():
    # Regression for the O(1) live-event counter: cancelling two of
    # every three queued events must keep pending_events exact and must
    # not disturb firing order of the survivors.
    engine = Engine()
    fired = []
    events = [engine.schedule(1000 + i, lambda i=i: fired.append(i))
              for i in range(500)]
    live = len(events)
    for i, event in enumerate(events):
        if i % 3 != 0:
            engine.cancel(event)
            engine.cancel(event)     # cancel is idempotent
            live -= 1
        assert engine.pending_events == live
    engine.run_until_idle()
    assert fired == [i for i in range(500) if i % 3 == 0]
    assert engine.pending_events == 0


def test_cancel_after_fire_is_a_noop():
    engine = Engine()
    event = engine.schedule(1, lambda: None)
    engine.run_until_idle()
    assert engine.pending_events == 0
    engine.cancel(event)
    assert engine.pending_events == 0


def test_bounded_run_never_rewinds_the_clock():
    # The time-skip fast path jumps the clock to `until`; a later run
    # with an earlier bound must not rewind it, or schedule_at could
    # admit events into the rewound window and fire them out of order.
    engine = Engine()
    engine.schedule(20, lambda: None)
    engine.run(until=10)
    assert engine.now == 10
    engine.run(until=5)
    assert engine.now == 10
    with pytest.raises(SimulationError):
        engine.schedule_at(7, lambda: None)
    engine.run_until_idle()
    assert engine.now == 20


def test_time_skip_with_cancel_heavy_heap_keeps_invariants():
    # Cancelling a long run of queued events, then time-skipping past
    # the dead region, must leave peek_time/now consistent so the
    # schedule_at past-time check stays exact.
    engine = Engine()
    doomed = [engine.schedule(100 + i, lambda: None) for i in range(200)]
    fired = []
    engine.schedule(500, lambda: fired.append(engine.now))
    for event in doomed:
        engine.cancel(event)
    assert engine.peek_time() == 500
    engine.run(until=400)          # pure time-skip: nothing fires
    assert engine.now == 400
    assert fired == []
    engine.schedule_at(450, lambda: fired.append(engine.now))
    engine.run_until_idle()
    assert fired == [450, 500]
    assert engine.now == 500


def test_events_fired_counter():
    engine = Engine()
    for _ in range(4):
        engine.schedule(1, lambda: None)
    engine.run_until_idle()
    assert engine.events_fired == 4


def test_events_fired_counts_events_before_a_raising_callback():
    engine = Engine()
    engine.schedule(1, lambda: None)

    def fail():
        raise RuntimeError("callback failed")

    engine.schedule(2, fail)
    engine.schedule(3, lambda: None)
    with pytest.raises(RuntimeError):
        engine.run()
    assert (engine.events_fired, engine.now) == (1, 2)
    assert engine.run() == 1
    assert engine.events_fired == 2
