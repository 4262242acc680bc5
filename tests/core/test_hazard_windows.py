"""Directed tests for the protocol's trickiest hazard windows.

Each test here encodes one of the crash-safety arguments from
docs/PROTOCOL.md §6 as a regression test: GC consolidation racing a
rewrite, mid-epoch eviction shadows, promotion absorption, and
checkpoint-vs-demand same-slot ordering.
"""

import pytest

from repro.config import small_test_config
from repro.core import probes
from repro.core.controller import ThyNVMController
from repro.core.metadata import GcState
from repro.core.recovery import recover_image
from repro.core.regions import REGION_A, REGION_B
from repro.fuzz.runner import check_committed_prefix, golden_images
from repro.fuzz.workloads import observed_blocks
from repro.mem.controller import DeviceKind

from ..conftest import (MANUAL_EPOCHS, end_epoch, make_direct, pad,
                        read_block, run_until, settle, write_block)


def small_btt_system(btt_entries=32):
    return make_direct(small_test_config(epoch_cycles=MANUAL_EPOCHS,
                                         btt_entries=btt_entries))


def force_gc_consolidation(system, victim_block):
    """Write enough blocks (plus the victim) to push the BTT past its
    GC pressure threshold, then idle the victim until GC selects it."""
    write_block(system, victim_block, b"victim-data")
    end_epoch(system)                       # victim stable in region A
    entry = system.ctl.btt.lookup(victim_block)
    assert entry.stable_region == REGION_A
    # Table pressure: 3/4 of capacity occupied.
    filler = range(100, 100 + (3 * system.ctl.btt.capacity) // 4)
    for round_index in range(3):            # victim idle >= 2 epochs
        for block in filler:
            write_block(system, block, bytes([round_index + 1]))
        end_epoch(system)
        entry = system.ctl.btt.lookup(victim_block)
        if entry is None or entry.gc_state is GcState.ISSUED:
            return entry
    return system.ctl.btt.lookup(victim_block)


def test_gc_consolidation_then_rewrite_is_crash_safe():
    s = small_btt_system()
    entry = force_gc_consolidation(s, victim_block=5)
    if entry is not None and entry.gc_state is GcState.ISSUED:
        # The hazard: rewrite the block while its consolidation copy to
        # home (region B) is still in flight.  The new write also
        # targets B; same-address FIFO must keep the new data last.
        write_block(s, 5, b"rewritten!!")
        assert entry.gc_state is GcState.NONE, "rewrite must cancel GC"
        end_epoch(s)
    else:
        # GC already dropped it; rewrite goes through a fresh entry.
        write_block(s, 5, b"rewritten!!")
        end_epoch(s)
    s.ctl.crash()
    recovered = s.ctl.recover()
    assert recovered.visible_block(5) == pad(b"rewritten!!")


def test_gc_dropped_block_reads_from_home():
    s = small_btt_system()
    force_gc_consolidation(s, victim_block=5)
    # A few more epochs to let the drop land.
    for _ in range(3):
        write_block(s, 200, b"churn")
        end_epoch(s)
    assert read_block(s, 5) == pad(b"victim-data")
    s.ctl.crash()
    assert s.ctl.recover().visible_block(5) == pad(b"victim-data")


def test_emergency_eviction_shadow_protects_region_a():
    """Fill a tiny BTT so mid-epoch eviction (with consolidation) runs;
    crash immediately after re-writing an evicted block."""
    s = small_btt_system(btt_entries=16)
    # Two epochs of writes so evictable entries have stable == A.
    for block in range(12):
        write_block(s, block, bytes([block + 1]))
    end_epoch(s)
    # Now flood with fresh blocks: evictions must kick in mid-epoch.
    for block in range(50, 80):
        write_block(s, block, bytes([block % 251]))
        settle(s.engine, 20_000)
    run_until(s.engine, lambda: not s.ctl._deferred_writes)
    # Rewrite one original block (may have been evicted+shadowed).
    write_block(s, 3, b"fresh")
    settle(s.engine, 50_000)
    s.ctl.validate()
    s.ctl.crash()
    recovered = s.ctl.recover()
    # Pre-crash committed value of block 3 must survive regardless of
    # the eviction/shadow interleaving (the rewrite was uncommitted).
    assert recovered.visible_block(3) == pad(bytes([4]))


def test_promotion_absorption_keeps_old_entries_until_durable():
    s = make_direct()
    first = 2 * s.config.blocks_per_page
    # Blocks gain BTT entries (and an NVM checkpoint in region A)...
    for offset in range(s.config.blocks_per_page):
        write_block(s, first + offset, bytes([offset + 1]))
    end_epoch(s)
    # ...then the page goes hot again and is promoted at the commit.
    for offset in range(s.config.blocks_per_page):
        write_block(s, first + offset, bytes([offset + 101]))
    end_epoch(s)
    assert 2 in s.ctl.ptt
    # Crash before the NEXT commit: the PTT entry is not yet in the
    # durable metadata, so recovery must fall back to the BTT entries.
    s.ctl.crash()
    recovered = s.ctl.recover()
    for offset in range(4):
        assert recovered.visible_block(first + offset) == \
            pad(bytes([offset + 101]))


def test_checkpoint_copy_sees_newest_flush_data():
    """A page checkpoint's DRAM reads must observe flush writes that
    are still queued (read-after-write forwarding end to end)."""
    s = make_direct()
    first = 2 * s.config.blocks_per_page
    for offset in range(s.config.blocks_per_page):
        write_block(s, first + offset, bytes([offset + 1]))
    end_epoch(s)                 # page promoted
    # Dirty the page and end the epoch immediately: the checkpoint's
    # page copy races the still-queued DRAM writes.
    for offset in range(s.config.blocks_per_page):
        write_block(s, first + offset, bytes([offset + 201 if offset < 55
                                              else offset]))
    end_epoch(s)
    s.ctl.crash()
    recovered = s.ctl.recover()
    assert recovered.visible_block(first) == pad(bytes([201]))
    assert recovered.visible_block(first + 5) == pad(bytes([206]))


def _overflow_stream(monkeypatch, crash_site="", occurrence=0,
                     crash_after_evictions=0):
    """Keep a 32-entry BTT overflowing across consecutive epochs.

    After two setup epochs (blocks 0-9 at home, 10-19 in region A),
    each round stores 12 fresh blocks, rewrites the newest block evicted
    from region A (its shadow is still live) and rewrites the previous
    round's last 4, all in one instant right after the previous commit
    lands.  The table overflows in every epoch, so emergency eviction
    rebuilds its candidate list each interval, and the rewritten blocks
    keep home drops coming alongside region-A consolidations.

    Crashes right after the store that makes the
    ``crash_after_evictions``-th eviction, or at the ``occurrence``-th
    ``crash_site`` probe.  Returns the system, the evictions as
    (epoch, victim block, region of its C_last) and the stores by epoch.
    """
    s = make_direct(small_test_config(epoch_cycles=MANUAL_EPOCHS,
                                      btt_entries=32))
    evictions = []
    schedule = {}
    evict = ThyNVMController._emergency_evict_block

    def logged_evict(ctl):
        regions = {block: entry.stable_region for block, entry in ctl.btt}
        epoch = ctl.epochs.active_epoch
        evicted = evict(ctl)
        if evicted:
            (victim,) = [block for block in regions if block not in ctl.btt]
            evictions.append((epoch, victim, regions[victim]))
        return evicted

    def observe(kind, _detail):
        nonlocal occurrence
        if kind == crash_site:
            occurrence -= 1
            if occurrence == 0:
                s.engine.schedule(0, s.ctl.crash)

    def store(block, data):
        write_block(s, block, data)
        # A deferred store would land in a later checkpoint than the
        # epoch it is filed under here.
        assert not s.ctl._deferred_writes
        schedule.setdefault(s.ctl.epochs.active_epoch, []).append(
            (block, pad(data)))
        if crash_after_evictions and len(evictions) >= crash_after_evictions:
            s.ctl.crash()

    def burst(blocks, data):
        for block in blocks:
            if not s.ctl.crashed:
                store(block, data)

    monkeypatch.setattr(ThyNVMController, "_emergency_evict_block",
                        logged_evict)
    previous = probes.set_observer(observe)
    try:
        for block in range(20):
            store(block, b"gen0")
        end_epoch(s)
        for block in range(10):
            store(block, b"gen1")
        end_epoch(s)
        for first in range(100, 172, 12):
            committed = s.ctl.committed_meta.epoch
            burst(range(first, first + 6), b"r%d" % first)
            evicted_a = [block for _epoch, block, region in evictions
                         if region == REGION_A]
            burst([*evicted_a[-1:], *range(first - 4, first)],
                  b"w%d" % first)
            burst(range(first + 6, first + 12), b"r%d" % first)
            if not s.ctl.crashed and not s.ctl.epochs.checkpoint_in_flight:
                s.ctl.force_epoch_end("test")
            while (s.ctl.committed_meta.epoch <= committed
                   and not s.ctl.crashed):
                s.engine.run(until=s.engine.now + 500)
    finally:
        probes.set_observer(previous)
    return s, evictions, schedule


@pytest.mark.parametrize("crash", [
    {"crash_after_evictions": 40},
    {"crash_site": "stage-done", "occurrence": 22},
    {"crash_site": "commit", "occurrence": 7},
], ids=["after-eviction", "mid-checkpoint", "after-commit"])
def test_evictions_over_consecutive_epochs_recover_committed_prefix(
        crash, monkeypatch):
    s, evictions, schedule = _overflow_stream(monkeypatch, **crash)
    assert s.ctl.crashed
    epochs = sorted({epoch for epoch, _block, _region in evictions})
    assert any(epochs[i + 2] - epochs[i] == 2
               for i in range(len(epochs) - 2)), epochs
    assert {region for _epoch, _block, region in evictions} == \
        {REGION_A, REGION_B}

    committed = s.ctl.committed_meta.epoch
    recovered = recover_image(
        s.config, s.memctrl.functional_store(DeviceKind.NVM))
    writes = [schedule.get(epoch, []) for epoch in range(max(schedule) + 1)]
    image = {block: recovered.visible_block(block)
             for block in observed_blocks(writes)}
    assert check_committed_prefix(
        recovered.epoch, image, golden_images(writes), [committed],
        s.config.block_bytes) == ""
