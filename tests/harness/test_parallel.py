"""Tests for the parallel point runner (docs/HARNESS.md)."""

import os
import time

import repro.harness.parallel as parallel
from repro.config import small_test_config
from repro.harness.parallel import RunPoint, run_points
from repro.stats.summary import stats_to_dict
from repro.workloads.micro import random_trace
from repro.workloads.tracespec import micro_spec

CONFIG = small_test_config()


def points():
    trace = micro_spec("random", 64 * 1024, 300, seed=1)
    return [RunPoint(system=system, trace=trace, config=CONFIG,
                     label=system)
            for system in ("ideal_dram", "journal", "thynvm")]


def snapshots(results):
    return [stats_to_dict(result.stats) for result in results]


def test_serial_matches_direct_run_workload():
    [result] = run_points(points()[:1])
    direct = parallel.run_workload("ideal_dram",
                                   random_trace(64 * 1024, 300, seed=1),
                                   CONFIG)
    assert stats_to_dict(result.stats) == stats_to_dict(direct.stats)
    assert result.wall_seconds > 0


def test_parallel_results_identical_to_serial():
    serial = run_points(points(), jobs=1)
    fanned = run_points(points(), jobs=2)
    assert snapshots(serial) == snapshots(fanned)
    # Merge order is the declared order, never completion order.
    assert [r.point.label for r in fanned] == ["ideal_dram", "journal",
                                               "thynvm"]


def test_progress_events_fire_in_declared_order():
    events = []
    run_points(points(), progress=events.append)
    assert [event.index for event in events] == [0, 1, 2]
    assert all(event.total == 3 for event in events)
    assert [event.point.label for event in events] == ["ideal_dram",
                                                       "journal", "thynvm"]



def test_progress_fires_before_the_next_point_starts(monkeypatch):
    """Progress is streamed: each point is reported as it lands, not
    after the whole sweep."""
    log = []
    simulate = parallel._simulate

    def recording_simulate(payload):
        log.append(("start", payload[0]))
        return simulate(payload)

    monkeypatch.setattr(parallel, "_simulate", recording_simulate)
    run_points(points(), jobs=1,
               progress=lambda event: log.append(("progress",
                                                  event.point.system)))
    assert log == [(kind, system)
                   for system in ("ideal_dram", "journal", "thynvm")
                   for kind in ("start", "progress")]


def _mark_and_wait(path):
    """Fan-out worker: leave a marker file, then take a while."""
    open(path, "w").close()
    time.sleep(0.2)
    return path


def test_consumer_stopping_early_cancels_pending_payloads(tmp_path):
    paths = [str(tmp_path / f"payload-{index}") for index in range(12)]
    results = parallel.fan_out(_mark_and_wait, paths, jobs=2)
    assert next(results) == paths[0]
    results.close()     # shuts the pool down, cancelling what is queued
    started = sum(1 for path in paths if os.path.exists(path))
    assert started < len(paths)
