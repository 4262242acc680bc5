"""Unit tests for the memory controller (queues, banks, fences, crash)."""

import pytest

from repro.config import small_test_config
from repro.mem.controller import DeviceKind, MemoryController
from repro.sim.engine import Engine
from repro.sim.request import MemoryRequest, Origin
from repro.stats.collector import StatsCollector


@pytest.fixture
def setup():
    config = small_test_config()
    engine = Engine()
    stats = StatsCollector(config.block_bytes)
    controller = MemoryController(engine, config, stats)
    return engine, controller, stats, config


def _write(addr, data=None, cb=None):
    return MemoryRequest(addr, True, Origin.CPU, data=data, callback=cb)


def _read(addr, cb=None):
    return MemoryRequest(addr, False, Origin.CPU, callback=cb)


def test_write_then_read_round_trip(setup):
    engine, controller, _stats, _cfg = setup
    payload = b"p" * 64
    controller.submit(DeviceKind.NVM, _write(0, payload))
    got = {}
    controller.submit(DeviceKind.NVM, _read(0, lambda r: got.update(d=r.data)))
    engine.run_until_idle()
    assert got["d"] == payload


def test_read_forwards_from_queued_write(setup):
    """A read must observe a same-address write still in the queue."""
    engine, controller, _stats, cfg = setup
    old = b"o" * 64
    new = b"n" * 64
    controller.submit(DeviceKind.NVM, _write(0, old))
    engine.run_until_idle()
    # Occupy bank 0 with another row so the next write stays queued;
    # the read then gets priority and services before the write.
    blocker_addr = cfg.row_bytes * cfg.num_banks   # bank 0, row 1
    controller.submit(DeviceKind.NVM, _write(blocker_addr))
    controller.submit(DeviceKind.NVM, _write(0, new))
    got = {}
    controller.submit(DeviceKind.NVM, _read(0, lambda r: got.update(d=r.data)))
    engine.run_until_idle()
    assert got["d"] == new


def test_requests_complete_with_latency(setup):
    engine, controller, _stats, _cfg = setup
    request = _write(0)
    controller.submit(DeviceKind.DRAM, request)
    engine.run_until_idle()
    assert request.complete_time is not None
    assert request.latency > 0


def test_queue_full_rejects(setup):
    engine, controller, _stats, cfg = setup
    accepted = 0
    # Same bank/row addresses so nothing drains instantly.
    for i in range(cfg.write_queue_entries + cfg.num_banks + 8):
        if controller.submit(DeviceKind.NVM, _write(i * 64)):
            accepted += 1
    assert accepted < cfg.write_queue_entries + cfg.num_banks + 8


def test_fence_fires_after_covered_writes_only(setup):
    engine, controller, _stats, _cfg = setup
    done = []
    for i in range(8):
        controller.submit(DeviceKind.NVM, _write(i * 64))
    controller.fence_writes(DeviceKind.NVM, lambda: done.append(engine.now))
    # Later writes must not delay the fence.
    for i in range(8, 16):
        controller.submit(DeviceKind.NVM, _write(i * 64))
    engine.run_until_idle()
    assert len(done) == 1


def test_fence_with_no_outstanding_writes_fires_immediately(setup):
    _engine, controller, _stats, _cfg = setup
    done = []
    controller.fence_writes(DeviceKind.NVM, lambda: done.append(1))
    assert done == [1]


def test_bank_parallelism_beats_serial_service(setup):
    engine, controller, _stats, cfg = setup
    # One access per bank: total time should be far less than the sum.
    start = engine.now
    for bank in range(cfg.num_banks):
        controller.submit(DeviceKind.NVM, _write(bank * cfg.row_bytes))
    engine.run_until_idle()
    elapsed = engine.now - start
    single = cfg.nvm.row_miss_clean + cfg.nvm.burst
    assert elapsed < cfg.num_banks * single / 2


def test_crash_loses_queued_writes_keeps_serviced(setup):
    engine, controller, _stats, _cfg = setup
    durable = b"d" * 64
    lost = b"l" * 64
    controller.submit(DeviceKind.NVM, _write(0, durable))
    engine.run_until_idle()
    controller.submit(DeviceKind.NVM, _write(0, lost))
    controller.crash()          # before the second write services
    engine.run_until_idle()
    store = controller.functional_store(DeviceKind.NVM)
    assert store.read(0) == durable


def test_crash_erases_dram_not_nvm(setup):
    engine, controller, _stats, _cfg = setup
    controller.submit(DeviceKind.DRAM, _write(0, b"v" * 64))
    controller.submit(DeviceKind.NVM, _write(0, b"p" * 64))
    engine.run_until_idle()
    controller.crash()
    assert controller.functional_store(DeviceKind.DRAM).read(0) == bytes(64)
    assert controller.functional_store(DeviceKind.NVM).read(0) == b"p" * 64


def test_crash_cancels_every_in_flight_completion(setup):
    """Power loss with three accesses in service: a single NVM write,
    one block of an NVM bulk run and a DRAM read.  Their completion
    events are cancelled, so none of them fires, stores or counts;
    an unrelated event still fires."""
    engine, controller, stats, cfg = setup
    size = cfg.block_bytes
    old, new = b"o" * size, b"n" * size
    controller.submit(DeviceKind.NVM, _write(0, old))
    engine.run_until_idle()
    payloads = [bytes([index + 1]) * size for index in range(4)]
    completed = []

    def on_block(_run, index, _payload):
        completed.append(index)

    run = MemoryRequest.bulk(cfg.row_bytes, True, Origin.CHECKPOINT, 4,
                             size, callback=on_block, carries_data=True)
    for payload in payloads:
        assert controller.bulk_admit_next(DeviceKind.NVM, run, payload)
    while not completed:
        engine.run(max_events=1)
    # Block 0 is durable and block 1 is now in service on bank 1.
    calls = []
    assert controller.submit(DeviceKind.NVM,
                             _write(0, new, lambda _r: calls.append("w")))
    assert controller.submit(DeviceKind.DRAM,
                             _read(0, lambda _r: calls.append("r")))
    engine.schedule(10_000, calls.append, "unrelated")
    in_flight = sum(len(state.active)
                    for state in controller._states.values())
    assert in_flight == 3
    pending, fired = engine.pending_events, engine.events_fired
    nvm_writes = stats.nvm_writes.total()
    controller.crash()
    assert engine.pending_events == pending - in_flight
    engine.run_until_idle()
    assert calls == ["unrelated"]
    assert completed == [0]
    assert engine.events_fired == fired + 1
    assert stats.nvm_writes.total() == nvm_writes
    store = controller.functional_store(DeviceKind.NVM)
    assert store.read(0) == old
    assert [store.read(run.block_addr(index)) for index in range(4)] == (
        [payloads[0]] + [bytes(size)] * 3)


def test_submit_after_crash_rejected(setup):
    _engine, controller, _stats, _cfg = setup
    controller.crash()
    assert not controller.submit(DeviceKind.NVM, _write(0))
    controller.power_on()
    assert controller.submit(DeviceKind.NVM, _write(0))


def _fill_nvm_write_queue(controller):
    """Submit writes until the NVM write queue refuses one."""
    addr = 0
    while controller.submit(DeviceKind.NVM, _write(addr)):
        addr += 64


def test_submit_or_wait_accepts_at_once(setup):
    engine, controller, _stats, _cfg = setup
    accepted = []
    request = _write(0)
    controller.submit_or_wait(DeviceKind.NVM, request,
                              on_accept=lambda: accepted.append(engine.now))
    assert accepted == [0]          # synchronously, before any event
    assert request.issue_time == 0
    engine.run_until_idle()
    assert accepted == [0]
    assert request.complete_time is not None


def test_submit_or_wait_admits_at_freed_slots_in_wait_order(setup):
    """On a full queue each request takes the next freed slot, after
    the waiters registered before it, and ``on_accept`` fires then."""
    engine, controller, _stats, cfg = setup
    _fill_nvm_write_queue(controller)
    accepted = []

    def on_accept(name, request):
        # The request took the slot that just freed: the queue is full
        # again, and the request was stamped in the same cycle.
        assert controller.queue_depth(DeviceKind.NVM, True) \
            == cfg.write_queue_entries
        assert request.issue_time == engine.now
        accepted.append(name)

    first, second = _write(cfg.row_bytes), _write(2 * cfg.row_bytes)
    controller.submit_or_wait(DeviceKind.NVM, first,
                              on_accept=lambda: on_accept("first", first))
    controller.submit_or_wait(DeviceKind.NVM, second,
                              on_accept=lambda: on_accept("second", second))
    assert accepted == []
    assert first.issue_time is None and second.issue_time is None
    engine.run_until_idle()
    assert accepted == ["first", "second"]
    assert first.issue_time <= second.issue_time
    assert first.complete_time is not None
    assert second.complete_time is not None


def test_submit_or_wait_on_crashed_controller_does_nothing(setup):
    engine, controller, _stats, _cfg = setup
    controller.crash()
    accepted = []
    request = _write(0)
    controller.submit_or_wait(DeviceKind.NVM, request,
                              on_accept=lambda: accepted.append(1))
    assert request.issue_time is None
    assert controller.requests_issued == 0
    # No waiter either: once powered on, freed slots wake nothing.
    controller.power_on()
    _fill_nvm_write_queue(controller)
    engine.run_until_idle()
    assert accepted == []
    assert request.issue_time is None and request.complete_time is None


def test_submit_or_wait_waiter_does_not_survive_crash(setup):
    engine, controller, _stats, _cfg = setup
    _fill_nvm_write_queue(controller)
    accepted = []
    request = _write(0)
    controller.submit_or_wait(DeviceKind.NVM, request,
                              on_accept=lambda: accepted.append(1))
    controller.crash()
    controller.power_on()
    _fill_nvm_write_queue(controller)
    engine.run_until_idle()
    assert accepted == []
    assert request.issue_time is None and request.complete_time is None


def test_idle_tracking(setup):
    engine, controller, _stats, _cfg = setup
    assert controller.idle
    controller.submit(DeviceKind.NVM, _write(0))
    assert not controller.idle
    engine.run_until_idle()
    assert controller.idle


def test_stats_record_origin(setup):
    engine, controller, stats, _cfg = setup
    controller.submit(DeviceKind.NVM,
                      MemoryRequest(0, True, Origin.CHECKPOINT))
    controller.submit(DeviceKind.NVM,
                      MemoryRequest(64, True, Origin.MIGRATION))
    engine.run_until_idle()
    assert stats.nvm_writes.get("checkpoint") == 1
    assert stats.nvm_writes.get("migration") == 1


# --- store-write rule: a serviced write is in the store at its service ------


RUN_BLOCKS = 8


@pytest.mark.parametrize("interleave", [False, True],
                         ids=["run", "fallback"])
@pytest.mark.parametrize("crash_after", [1, 3, 6, 8])
def test_bulk_write_block_is_durable_at_its_service(setup, crash_after,
                                                   interleave):
    """Each block of a data-carrying run is in the NVM store when its
    completion callback fires, and a crash keeps exactly the completed
    blocks.  The interleaved single write (same bank, other row, so it
    stays queued) takes the queue tail, so blocks 3-7 are admitted as
    fallback singles."""
    engine, controller, _stats, cfg = setup
    size = cfg.block_bytes
    payloads = [bytes([index + 1]) * size for index in range(RUN_BLOCKS)]
    completed = []

    def on_block(run, index, _payload):
        store = controller.functional_store(DeviceKind.NVM)
        assert store.read(run.block_addr(index)) == payloads[index]
        completed.append(index)
        if len(completed) == crash_after:
            controller.crash()

    run = MemoryRequest.bulk(0, True, Origin.CHECKPOINT, RUN_BLOCKS, size,
                             callback=on_block, carries_data=True)
    for index in range(RUN_BLOCKS):
        if interleave and index == 3:
            other_row = cfg.row_bytes * cfg.num_banks     # bank 0, row 1
            assert controller.submit(DeviceKind.NVM,
                                     _write(other_row, b"s" * size))
        assert controller.bulk_admit_next(DeviceKind.NVM, run,
                                          payloads[index])
    # Block 0 is in service; the rest sit in the run's entry or, past
    # the interleaved write, in fallback singles.
    assert run.queued == (2 if interleave else RUN_BLOCKS - 1)
    engine.run_until_idle()
    assert len(completed) == crash_after
    store = controller.functional_store(DeviceKind.NVM)
    for index in range(RUN_BLOCKS):
        expected = payloads[index] if index in completed else bytes(size)
        assert store.read(run.block_addr(index)) == expected
