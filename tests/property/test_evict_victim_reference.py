"""Emergency BTT eviction picks exactly the linear scan's victim.

``ThyNVMController._emergency_evict_block`` takes its victim from a
list of idle BTT entries built once per commit interval and walked by
two forward cursors.  The whole-table scan it replaced survives here as
the oracle, :func:`reference_victim`: every eviction call is checked
against it, on two micro workloads whose working sets overflow a
256-entry BTT and on a direct-driven run across a crash, recovery and
table rebuild.  The last two tests check that ``validate()`` reports an
entry turning idle behind a live cursor.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.config import small_test_config
from repro.core.controller import ThyNVMController
from repro.core.metadata import GcState
from repro.core.regions import REGION_A, REGION_B
from repro.errors import ProtocolError
from repro.harness.experiments import MICRO_FOOTPRINT, experiment_config
from repro.harness.runner import run_workload
from repro.workloads.tracespec import micro_spec

from ..conftest import (MANUAL_EPOCHS, end_epoch, make_direct, pad,
                        write_block)


def reference_victim(btt):
    """The linear scan: the first idle entry in table order whose C_last
    is at home, else the first idle entry, else ``None``."""
    fallback = None
    for _block, entry in btt:
        if (entry.pending_epoch is not None or entry.temp_epochs
                or entry.gc_state is not GcState.NONE
                or entry.coop_page is not None
                or entry.absorbed_by_page):
            continue
        if entry.stable_region == REGION_B:
            return entry
        if fallback is None:
            fallback = entry
    return fallback


@pytest.fixture
def checked_evictions(monkeypatch):
    """Wrap every eviction call in a check against the reference pick;
    counts the picks by kind ("home", "region_a", "none")."""
    calls: Counter = Counter()
    evict = ThyNVMController._emergency_evict_block

    def checked(self):
        expected = reference_victim(self.btt)
        before = len(self.btt)
        evicted = evict(self)
        if expected is None:
            assert not evicted and len(self.btt) == before, (
                "evicted a block where the linear scan finds no victim")
            calls["none"] += 1
            return evicted
        assert evicted, f"no victim, linear scan picks {expected.block}"
        assert len(self.btt) == before - 1
        assert self.btt.get(expected.block) is None, (
            f"evicted another block than the linear scan's "
            f"{expected.block}")
        calls["home" if expected.stable_region == REGION_B
              else "region_a"] += 1
        return evicted

    monkeypatch.setattr(ThyNVMController, "_emergency_evict_block", checked)
    return calls


@pytest.mark.parametrize("workload", ["sliding", "random"])
def test_micro_evictions_match_linear_scan(workload, checked_evictions):
    spec = micro_spec(workload, MICRO_FOOTPRINT, 2000, seed=1)
    run_workload("thynvm", spec.build(), experiment_config(btt_entries=256))
    # Hundreds of calls per run, and every kind of pick among them.
    assert sum(checked_evictions.values()) > 300, checked_evictions
    assert set(checked_evictions) == {"home", "region_a", "none"}


def _two_region_system():
    """A 16-entry BTT holding idle entries of both kinds: blocks 0-2,
    written in two epochs, at home; blocks 3-9, written in one, in
    region A."""
    s = make_direct(small_test_config(epoch_cycles=MANUAL_EPOCHS,
                                      btt_entries=16))
    for block in range(10):
        write_block(s, block, b"gen0")
    end_epoch(s)
    for block in range(3):
        write_block(s, block, b"gen1")
    end_epoch(s)
    return s


def _burst(system, blocks, data):
    """Stores in one instant.  The one that crosses the BTT's high
    watermark starts a checkpoint, which holds off the next boundary,
    so the rest of the burst overflows into emergency evictions."""
    for block in blocks:
        write_block(system, block, data)


def test_evictions_match_linear_scan_across_restore(checked_evictions):
    s = _two_region_system()
    _burst(s, range(40, 60), b"flood")
    assert set(checked_evictions) == {"home", "region_a", "none"}
    assert s.ctl._evict_candidates is not None
    # Crash mid-checkpoint with the candidate list live.  The rebuilt
    # table holds new entries for blocks 0-9; a list that survived the
    # rebuild would know none of them and find no victim.
    s.ctl.crash()
    s.ctl.restore_from(s.ctl.recover())
    before = Counter(checked_evictions)
    _burst(s, range(80, 100), b"after")
    end_epoch(s)
    end_epoch(s)
    s.ctl.validate()
    assert checked_evictions["home"] > before["home"]
    assert checked_evictions["region_a"] > before["region_a"]
    s.ctl.crash()
    recovered = s.ctl.recover()
    for block in range(3):
        assert recovered.visible_block(block) == pad(b"gen1")
    for block in (3, 9, 80, 99):
        expected = b"gen0" if block < 10 else b"after"
        assert recovered.visible_block(block) == pad(expected)


def test_validate_catches_entry_turning_idle_mid_interval():
    s = _two_region_system()
    _burst(s, range(40, 52), b"flood")
    assert s.ctl._evict_candidates is not None
    s.ctl.validate()
    busy = s.ctl.btt.lookup(51)
    assert busy.pending_epoch is not None
    # A working copy vanishing between commits breaks the invariant the
    # cursors rely on: validate() must say so.
    busy.pending_epoch = None
    with pytest.raises(ProtocolError, match="missing from the eviction"):
        s.ctl.validate()


def test_validate_catches_idle_home_entry_behind_home_cursor():
    s = _two_region_system()
    _burst(s, range(40, 52), b"flood")
    ctl = s.ctl
    passed = [entry for entry in ctl._evict_candidates[:ctl._evict_home_cursor]
              if ctl.btt.get(entry.block) is entry]
    assert passed and passed[0].stable_region == REGION_A
    ctl.validate()
    passed[0].stable_region = REGION_B
    with pytest.raises(ProtocolError, match="behind the eviction cursor"):
        ctl.validate()
