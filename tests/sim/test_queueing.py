"""Unit tests for the bounded request queues."""

from repro.sim.queueing import BoundedQueue
from repro.sim.request import MemoryRequest, Origin


def req(addr, is_write=True, origin=Origin.CPU, bank=0, row=0):
    request = MemoryRequest(addr, is_write, origin)
    # The controller normally caches the device decode at submit time;
    # unit tests assign bank/row directly.
    request.bank = bank
    request.row = row
    return request


def test_enqueue_until_full():
    queue = BoundedQueue("q", 2)
    assert queue.try_enqueue(req(0))
    assert queue.try_enqueue(req(64))
    assert queue.full
    assert not queue.try_enqueue(req(128))
    assert len(queue) == 2


def test_pop_ready_is_fifo_within_bank():
    queue = BoundedQueue("q", 4)
    first, second = req(0), req(64)
    queue.try_enqueue(first)
    queue.try_enqueue(second)
    assert queue.pop_ready(set(), [None]) is first
    assert queue.pop_ready(set(), [None]) is second


def test_pop_ready_empty_returns_none():
    queue = BoundedQueue("q", 4)
    assert queue.pop_ready(set(), [None]) is None


def test_waiter_woken_on_pop_ready():
    queue = BoundedQueue("q", 1)
    queue.try_enqueue(req(0))
    woken = []
    queue.wait_for_slot(lambda: woken.append(1))
    assert not woken
    queue.pop_ready(set(), [None])
    assert woken == [1]


def test_pop_ready_prefers_row_hit():
    queue = BoundedQueue("q", 4)
    a = req(0, bank=0, row=0)
    b = req(64, bank=1, row=0)
    c = req(128, bank=2, row=5)
    for r in (a, b, c):
        queue.try_enqueue(r)
    # Only c hits an open row; row hits beat FIFO order.
    got = queue.pop_ready(set(), [None, None, 5, None])
    assert got is c


def test_pop_ready_falls_back_to_fifo_among_misses():
    queue = BoundedQueue("q", 4)
    a = req(0, bank=0, row=0)
    b = req(64, bank=1, row=0)
    queue.try_enqueue(a)
    queue.try_enqueue(b)
    got = queue.pop_ready(set(), [None, None])
    assert got is a


def test_pop_ready_respects_bank_availability():
    queue = BoundedQueue("q", 4)
    a = req(0, bank=0)
    b = req(64, bank=1)
    queue.try_enqueue(a)
    queue.try_enqueue(b)
    got = queue.pop_ready({0}, [None, None])
    assert got is b
    assert len(queue) == 1


def test_pop_ready_same_address_fifo():
    queue = BoundedQueue("q", 4)
    old, new = req(64, bank=1, row=3), req(64, bank=1, row=3)
    queue.try_enqueue(old)
    queue.try_enqueue(new)
    # The younger same-address request must not bypass the older one,
    # even when it would be a row hit.
    got = queue.pop_ready(set(), [None, 3])
    assert got is old


def test_pop_ready_demand_priority():
    queue = BoundedQueue("q", 4)
    background = req(0, origin=Origin.MIGRATION, bank=0, row=0)
    demand = req(64, origin=Origin.CPU, bank=1, row=0)
    queue.try_enqueue(background)
    queue.try_enqueue(demand)
    # With demand priority, the younger CPU read beats the older
    # background read; without it, FIFO order wins.
    assert queue.pop_ready(set(), [None, None], demand_priority=True) is demand
    queue.try_enqueue(demand)
    assert queue.pop_ready(set(), [None, None]) is background


def test_pop_ready_returns_none_when_nothing_ready():
    queue = BoundedQueue("q", 4)
    queue.try_enqueue(req(0, bank=0))
    assert queue.pop_ready({0}, [None]) is None


def test_drop_all_clears_items_and_waiters():
    queue = BoundedQueue("q", 1)
    queue.try_enqueue(req(0))
    woken = []
    queue.wait_for_slot(lambda: woken.append(1))
    dropped = queue.drop_all()
    assert dropped == 1
    assert not queue
    assert not woken, "crash must not wake producers"


def test_grow_bulk_extends_the_youngest_queued_entry_only():
    queue = BoundedQueue("q", 8)
    run = MemoryRequest.bulk(0, True, Origin.CHECKPOINT, 4, 64)
    run.bank, run.row = 0, 0
    assert queue.grow_bulk(run)           # enters as the tail entry
    single = req(4096, bank=1)
    assert queue.try_enqueue(single)
    # A younger single is queued: extending the run would jump it.
    assert not queue.grow_bulk(run)
    assert queue.pop_ready({0}, [None, None]) is single
    # The single left, so the run is the youngest entry again and
    # extends in place (a rule keyed on the last age stamped, which
    # is the single's, would refuse here).
    assert queue.grow_bulk(run)
    assert run.queued == 2 and run.issued == 2
    assert list(queue.items()) == [run]
