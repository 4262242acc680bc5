"""Baseline selection and repeats for ``repro perf``.

A throughput comparison is only meaningful against an entry that
measured the same thing: same mode, same trace length, same
(workload, system) matrix.  These tests pin the selection rules, the
graceful "no baseline" degradation for empty or malformed
trajectories, and ``--repeat N``: median, min and max wall time per
cell and in the totals, a typed error when a repeat's simulated
outcome differs, schema 2 with old entries read as one shot, and
``--check`` against the baseline's spread.
"""

from __future__ import annotations

import json

import pytest

from repro import perf
from repro.errors import SimulationError
from repro.perf import _matrix_shape, find_baseline, load_trajectory


def _entry(mode: str, ops: int, cells, rate: int = 1000, label: str = "e"):
    return {
        "label": label,
        "mode": mode,
        "ops": ops,
        "cells": [{"workload": w, "system": s} for w, s in cells],
        "totals": {"events_per_sec": rate},
    }


FULL = [(w, s) for w in ("random", "streaming") for s in ("shadow", "thynvm")]
PARTIAL = [("random", "shadow")]


def test_empty_trajectory_yields_no_baseline():
    assert find_baseline({"entries": []}, mode="full") is None
    assert find_baseline({}, mode="full") is None


def test_missing_file_yields_no_baseline(tmp_path):
    trajectory = load_trajectory(tmp_path / "missing.json")
    assert find_baseline(trajectory, mode="quick") is None


def test_quick_never_compares_against_full():
    trajectory = {"entries": [_entry("full", 12000, FULL, label="full-only")]}
    assert find_baseline(trajectory, mode="quick") is None


def test_full_never_compares_against_quick():
    trajectory = {"entries": [_entry("quick", 3000, FULL, label="q")]}
    assert find_baseline(trajectory, mode="full") is None


def test_matching_mode_picks_most_recent():
    trajectory = {"entries": [
        _entry("quick", 3000, FULL, rate=10, label="old-quick"),
        _entry("full", 12000, FULL, rate=20, label="full"),
        _entry("quick", 3000, FULL, rate=30, label="new-quick"),
    ]}
    chosen = find_baseline(trajectory, mode="quick")
    assert chosen["label"] == "new-quick"


def test_ops_must_match_when_provided():
    trajectory = {"entries": [
        _entry("full", 12000, FULL, label="twelve-k"),
        _entry("full", 6000, FULL, label="six-k"),
    ]}
    assert find_baseline(trajectory, mode="full", ops=12000)["label"] == \
        "twelve-k"
    assert find_baseline(trajectory, mode="full", ops=3000) is None


def test_matrix_shape_must_match_when_provided():
    full = _entry("full", 12000, FULL, label="full-matrix")
    partial = _entry("full", 12000, PARTIAL, label="partial-matrix")
    trajectory = {"entries": [full, partial]}
    shape = _matrix_shape(full)
    assert find_baseline(trajectory, mode="full", ops=12000,
                         shape=shape)["label"] == "full-matrix"
    assert find_baseline(
        trajectory, mode="full", ops=12000,
        shape=_matrix_shape(partial))["label"] == "partial-matrix"


def test_malformed_entries_are_skipped():
    trajectory = {"entries": [
        "not-a-dict",
        {"mode": "full", "ops": 12000},                 # no totals
        {"mode": "full", "ops": 12000, "totals": {}},   # no rate
        _entry("full", 12000, FULL, label="good"),
    ]}
    assert find_baseline(trajectory, mode="full")["label"] == "good"
    assert _matrix_shape({"cells": "nope"}) is None
    assert _matrix_shape({"cells": [{"workload": "w"}]}) is None


# --- repeats (``repro perf --repeat N``) ------------------------------------


def _fake_cells(walls, moved=None):
    """A stand-in for ``perf._run_cell`` whose n-th call takes
    ``walls[n]`` seconds; ``moved`` maps a call number to a changed
    simulated field."""
    calls = iter(range(len(walls)))

    def run_cell(workload, system, ops, config=None, store="auto"):
        number = next(calls)
        cell = {"workload": workload, "system": system, "ops": ops,
                "cycles": 100, "events": 1000, "requests": 50,
                "requests_issued": 20, "wall_seconds": walls[number],
                "events_per_sec": 0, "requests_per_sec": 0}
        cell.update((moved or {}).get(number, {}))
        return cell
    return run_cell


def test_repeat_records_median_min_and_max(monkeypatch):
    # Two cells, three repeats; repeats run the whole matrix in turn.
    monkeypatch.setattr(perf, "_run_cell",
                        _fake_cells([1.0, 2.0, 3.0, 2.5, 2.0, 4.0]))
    entry = perf.run_perf(ops=10, repeat=3, systems=("shadow",),
                          workloads=("random", "streaming"))
    assert entry["repeat"] == 3
    random, streaming = entry["cells"]
    assert (random["wall_seconds"], random["wall_min"],
            random["wall_max"]) == (2.0, 1.0, 3.0)
    assert (streaming["wall_seconds"], streaming["wall_min"],
            streaming["wall_max"]) == (2.5, 2.0, 4.0)
    assert random["events_per_sec"] == 500
    totals = entry["totals"]
    # Per-repeat matrix walls 3.0, 5.5 and 6.0.
    assert (totals["wall_seconds"], totals["wall_min"],
            totals["wall_max"]) == (5.5, 3.0, 6.0)
    assert totals["events"] == 2000 and totals["requests_issued"] == 40
    assert perf.rate_spread(entry) == (2000 / 6.0, 2000 / 3.0)


@pytest.mark.parametrize("field", perf.DETERMINISTIC)
def test_repeat_with_a_different_outcome_raises(monkeypatch, field):
    monkeypatch.setattr(perf, "_run_cell", _fake_cells(
        [1.0, 1.0, 1.0, 1.0], moved={3: {field: 7}}))
    with pytest.raises(SimulationError, match=field):
        perf.run_perf(ops=10, repeat=2, systems=("shadow",),
                      workloads=("random", "streaming"))


def test_repeat_must_be_positive():
    with pytest.raises(SimulationError):
        perf.run_perf(ops=10, repeat=0)


def test_real_repeats_agree():
    entry = perf.run_perf(ops=200, repeat=2, systems=("ideal_dram",),
                          workloads=("random",))
    cell = entry["cells"][0]
    assert cell["wall_min"] <= cell["wall_seconds"] <= cell["wall_max"]
    assert cell["events"] > 0 and entry["totals"]["events"] == cell["events"]


def test_old_entries_read_as_one_shot_and_file_moves_to_schema_2(tmp_path):
    path = tmp_path / "trajectory.json"
    old = _entry("full", 12000, FULL, rate=1000, label="one-shot")
    old["totals"].update(events=5000, wall_seconds=5.0)
    path.write_text(json.dumps({"schema": 1, "entries": [old]}))
    assert perf.rate_spread(old) == (1000, 1000)
    new = _entry("full", 12000, FULL, rate=1100, label="repeated")
    new.update(repeat=3)
    trajectory = perf.append_entry(new, path)
    assert trajectory["schema"] == 2
    stored = json.loads(path.read_text())
    assert stored["schema"] == 2
    assert [e["label"] for e in stored["entries"]] == ["one-shot", "repeated"]
    assert find_baseline(stored, mode="full")["label"] == "repeated"


def test_check_compares_against_the_baseline_spread():
    baseline = _entry("full", 12000, FULL, rate=1000)
    baseline["totals"].update(events=10_000, wall_seconds=10.0,
                              wall_min=8.0, wall_max=12.5)   # 800..1250
    fine = _entry("full", 12000, FULL, rate=601)
    slow = _entry("full", 12000, FULL, rate=599)
    assert not perf.below_spread(fine, baseline, 0.25)   # floor 600
    assert perf.below_spread(slow, baseline, 0.25)
    # Without a spread the floor is the baseline's one rate.
    one_shot = _entry("full", 12000, FULL, rate=1000)
    assert perf.below_spread(_entry("full", 12000, FULL, rate=749),
                             one_shot, 0.25)
    assert not perf.below_spread(_entry("full", 12000, FULL, rate=751),
                                 one_shot, 0.25)
