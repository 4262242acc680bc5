"""Property tests for the event engine and cache structures."""

from collections import OrderedDict

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.config import CacheConfig
from repro.errors import SimulationError
from repro.sim.engine import Engine

from .engine_reference import ListEngine


@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_engine_fires_in_nondecreasing_time_order(delays):
    engine = Engine()
    fired = []
    for delay in delays:
        engine.schedule(delay, lambda d=delay: fired.append(engine.now))
    engine.run_until_idle()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert engine.now == max(delays)


class CallbackError(Exception):
    """Raised by an event's ``raise`` follow-up."""


class Program:
    """Drives one engine through a program and logs what fires.

    Events are numbered in scheduling order; a ``cancel`` names one by
    that number, modulo how many exist, so it may hit a queued, a
    fired or an already-cancelled event.  Each event logs its number
    and the clock when it fires, then runs its follow-ups: schedule
    a child event, cancel one, start a nested run, or raise
    :class:`CallbackError`, which ends the run that fired it.  Its last
    follow-up may hand over to a successor through ``advance``: with
    ``inline`` (the engine under test) the successor fires in place
    when ``advance`` says so, and is scheduled otherwise; the model
    schedules it either way.  The log records each ``advance`` verdict.
    """

    def __init__(self, engine, inline: bool) -> None:
        self.engine = engine
        self.inline = inline
        self.handles = []
        self.log = []

    def fire(self, tag, follow) -> None:
        self.log.append((tag, self.engine.now))
        for step in follow:
            if step[0] == "schedule":
                self.add(self.engine.schedule, step[1], step[2])
            elif step[0] == "cancel":
                self.cancel(step[1])
            elif step[0] == "run":
                until = None if step[1] is None else self.engine.now + step[1]
                self.log.append(("nested", self.engine.run(
                    until=until, max_events=step[2])))
            elif step[0] == "advance":
                self.successor(step[1], step[2])
            else:
                raise CallbackError(tag)

    def successor(self, delay, follow) -> None:
        fired = self.engine.advance(delay)
        self.log.append(("advance", fired))
        if fired and self.inline:
            tag = len(self.handles)
            # A handle of an event that already fired: cancel ignores it.
            self.handles.append([None, None, None, ()])
            self.fire(tag, follow)
        else:
            self.add(self.engine.schedule, delay, follow)

    def add(self, schedule, when, follow) -> None:
        self.handles.append(schedule(when, self.fire, len(self.handles),
                                     follow))

    def cancel(self, number) -> None:
        if self.handles:
            self.engine.cancel(self.handles[number % len(self.handles)])

    def step(self, op):
        """Run one top-level operation: its result, or the error type."""
        engine = self.engine
        kind = op[0]
        try:
            if kind == "schedule":
                self.add(engine.schedule, op[1], op[2])
            elif kind == "schedule_at":
                offset = op[1]
                when = offset if type(offset) is not int else (
                    engine.now + offset)
                self.add(engine.schedule_at, when, op[2])
            elif kind == "cancel":
                self.cancel(op[1])
            elif kind == "advance":
                return engine.advance(op[1])
            elif kind == "run":
                until = None if op[1] is None else engine.now + op[1]
                return engine.run(until=until, max_events=op[2])
            else:
                return engine.run_until_idle(max_events=op[1])
        except (SimulationError, CallbackError) as error:
            return type(error).__name__
        return None


# An event's follow-ups.  Children are scheduled with valid delays; an
# ``advance`` (always the last follow-up) may carry one that schedule
# rejects, which advance must refuse so that the schedule raises.
def _follow(children):
    steps = st.lists(st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 8), children),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
        st.tuples(st.just("run"), st.one_of(st.none(), st.integers(0, 8)),
                  st.one_of(st.none(), st.integers(1, 4))),
        st.tuples(st.just("raise"))), max_size=3)
    advance = st.tuples(st.tuples(
        st.just("advance"),
        st.one_of(st.integers(0, 8), st.integers(0, 8),
                  st.sampled_from([-1, 1.0, True])),
        children))
    tail = st.one_of(advance, advance, st.just(()))
    return st.tuples(steps, tail).map(
        lambda parts: tuple(parts[0]) + parts[1])


FOLLOW = st.recursive(st.just(()), _follow, max_leaves=8)
# A top-level event always gets follow-ups of its own.
TOP_FOLLOW = _follow(FOLLOW)

OPERATION = st.one_of(
    st.tuples(st.just("schedule"),
              st.one_of(st.integers(-2, 30), st.sampled_from([1.0, True])),
              TOP_FOLLOW),
    st.tuples(st.just("schedule_at"),
              st.one_of(st.integers(-3, 30), st.sampled_from([2.0, False])),
              TOP_FOLLOW),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("advance"), st.integers(0, 8)),
    st.tuples(st.just("run"), st.one_of(st.none(), st.integers(-5, 30)),
              st.one_of(st.none(), st.integers(1, 6))),
    st.tuples(st.just("idle"), st.integers(1, 12)),
)


@given(st.lists(OPERATION, max_size=40))
@settings(max_examples=300, deadline=None)
# A cancelled entry still queued at the target cycle refuses advance.
@example(program=[("schedule", 0, (
    ("schedule", 0, (("cancel", 2), ("run", None, 1), ("advance", 1, ()))),
    ("schedule", 1, ()), ("advance", 0, ())))])
def test_engine_matches_sorted_list_reference(program):
    heap, model = Program(Engine(), True), Program(ListEngine(), False)
    for op in program:
        assert heap.step(op) == model.step(op), op
        assert heap.log == model.log
        assert heap.engine.now == model.engine.now
        assert heap.engine.pending_events == model.engine.pending_events
        assert heap.engine.events_fired == model.engine.events_fired
    drain = ("run", None, None)
    while heap.engine.pending_events:
        assert heap.step(drain) == model.step(drain)
    assert heap.log == model.log
    assert heap.engine.events_fired == model.engine.events_fired
    assert model.engine.pending_events == 0


@given(st.lists(st.tuples(st.integers(0, 511), st.booleans()),
                min_size=1, max_size=400))
@settings(max_examples=50, deadline=None)
def test_cache_dirty_counter_always_exact(accesses):
    cache = Cache("p", CacheConfig(2048, 4, 64, 1))
    model = OrderedDict()   # resident block -> dirty (approximate LRU oracle)
    for block, is_write in accesses:
        addr = block * 64
        if cache.lookup(addr):
            if is_write:
                cache.mark_dirty(addr)
        else:
            cache.insert(addr, dirty=is_write)
        # Invariant under test: the O(1) counter equals a full recount.
        recount = sum(
            1 for entries in cache._sets.values()
            for dirty in entries.values() if dirty)
        assert cache.dirty_block_count() == recount
    cleaned = cache.clean_dirty_blocks()
    assert cache.dirty_block_count() == 0
    assert len(set(cleaned)) == len(cleaned)


@given(st.lists(st.integers(0, 255), min_size=1, max_size=300))
@settings(max_examples=50, deadline=None)
def test_cache_never_exceeds_capacity(blocks):
    config = CacheConfig(1024, 2, 64, 1)
    cache = Cache("p", config)
    for block in blocks:
        cache.insert(block * 64, dirty=False)
        assert cache.resident_blocks <= config.num_sets * config.ways
    # Everything ever inserted either resides or was evicted — lookups
    # never fabricate hits for untouched blocks.
    assert not cache.lookup((max(blocks) + 1) * 64, touch=False)
