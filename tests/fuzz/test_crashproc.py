"""Cross-process kill -9 crash/recovery cycles (``repro crashproc``).

Each case spawns a real child process against an mmap-backed NVM
image, SIGKILLs it at a fuzz-enumerated probe site mid-checkpoint, and
recovers in a *fresh* process — strictly stronger than the in-process
injector, because nothing of the crashed run's Python heap survives.
Subprocess cycles cost seconds each, so plans here stay small (one
schedule epoch, 16 blocks); the full site sweep lives in the CI
``crashproc-smoke`` job and ``repro crashproc --sweep``.
"""

from __future__ import annotations

import pytest

from repro.fuzz.crashproc import (
    QUICK_SWEEP_SITES, SWEEP_SITES, run_crashproc, sweep_plans)
from repro.fuzz.plan import FUZZ_SYSTEMS, parse_plan


def _plan(system: str, site: str):
    return parse_plan(f"{system}/sparse:s1:e1:b16@{site}+0")


@pytest.mark.parametrize("system", FUZZ_SYSTEMS)
def test_sigkill_mid_checkpoint_recovers(system):
    """The acceptance cycle: child killed at the first commit-record
    write, fresh-process recovery must match the committed prefix."""
    result = run_crashproc(_plan(system, "commit-write#1"))
    assert result.outcome == "pass", result.to_dict()
    assert result.recovered_epoch is not None


def test_sigkill_at_checkpoint_start_recovers():
    result = run_crashproc(_plan("thynvm", "ckpt-start#1"))
    assert result.outcome == "pass", result.to_dict()


def test_unreached_site_is_reported_not_failed():
    """A site occurrence the schedule never reaches must be signalled
    distinctly (the sweep treats it as a dead cell, not a pass)."""
    result = run_crashproc(_plan("thynvm", "commit-write#999"))
    assert result.outcome == "unreached"
    assert not result.failed


def test_sweep_plans_cover_systems_and_sites():
    plans = sweep_plans()
    assert len(plans) == len(FUZZ_SYSTEMS) * len(SWEEP_SITES)
    quick = sweep_plans(quick=True)
    assert len(quick) == len(FUZZ_SYSTEMS) * len(QUICK_SWEEP_SITES)
    assert {p.system for p in quick} == set(FUZZ_SYSTEMS)
