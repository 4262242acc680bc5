"""Tests for the parallel, cached point runner (docs/HARNESS.md)."""

import repro.harness.parallel as parallel
from repro.config import small_test_config
from repro.harness.parallel import (RunPoint, cache_key, code_version,
                                    run_points, stats_by_point)
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
    assert not result.cached
    assert result.wall_seconds > 0


def test_parallel_results_identical_to_serial():
    serial = run_points(points(), jobs=1)
    fanned = run_points(points(), jobs=2)
    assert snapshots(serial) == snapshots(fanned)
    # Merge order is the declared order, never completion order.
    assert [r.point.label for r in fanned] == ["ideal_dram", "journal",
                                               "thynvm"]


def test_cache_hits_skip_simulation(tmp_path, monkeypatch):
    cold = run_points(points(), cache_dir=tmp_path)
    assert all(not result.cached for result in cold)
    assert sorted(tmp_path.glob("*.json"))

    # A warm run must never reach the worker: make it explode if it does.
    def boom(payload):
        raise AssertionError("cache hit must skip simulation")

    monkeypatch.setattr(parallel, "_simulate", boom)
    warm = run_points(points(), cache_dir=tmp_path)
    assert all(result.cached for result in warm)
    assert snapshots(warm) == snapshots(cold)


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    run_points(points()[:1], cache_dir=tmp_path)
    for path in tmp_path.glob("*.json"):
        path.write_text("{not json")
    rerun = run_points(points()[:1], cache_dir=tmp_path)
    assert not rerun[0].cached


def test_cache_key_depends_on_every_input():
    [a, b, c] = points()
    base = cache_key(a, version="v")
    assert base == cache_key(a, version="v")                 # stable
    assert base != cache_key(b, version="v")                 # system
    assert base != cache_key(a, version="w")                 # code version
    other_config = RunPoint(system=a.system, trace=a.trace,
                            config=CONFIG.with_overrides(btt_entries=128))
    assert base != cache_key(other_config, version="v")      # config
    other_trace = RunPoint(system=a.system, config=a.config,
                           trace=micro_spec("random", 64 * 1024, 300,
                                            seed=9))
    assert base != cache_key(other_trace, version="v")       # workload


def test_code_version_is_memoized_hex():
    version = code_version()
    assert version == code_version()
    int(version, 16)
    assert len(version) == 64


def test_progress_events_fire_in_declared_order():
    events = []
    run_points(points(), progress=events.append)
    assert [event.index for event in events] == [0, 1, 2]
    assert all(event.total == 3 for event in events)
    assert [event.point.label for event in events] == ["ideal_dram",
                                                       "journal", "thynvm"]


def test_stats_by_point_preserves_order():
    results = run_points(points())
    assert stats_by_point(results) == [r.stats for r in results]
