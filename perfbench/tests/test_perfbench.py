"""Tests of the benchmark itself (names, metric sets, failure counting,
tracing hygiene, process boundaries)."""

from __future__ import annotations

import json
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import hostref
import run
import spans
import suite
from repro.errors import SimulationError
from repro.fuzz.runner import FuzzResult
from repro.sim.engine import Engine

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = 0.02


def tiny_plans(count: int = 6):
    path = suite.plan_file(suite.DEFAULT_SEED, Path("unused"))
    return suite.load_plans(path)[:count]


def test_metric_names_carry_units_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for table in (run.END_TO_END_UNITS, run.PER_LAYER_UNITS):
        for name, unit in table.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), (name, unit)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert tuple(run.WORKLOADS) == suite.WORKLOADS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_each_workload_emits_its_full_metric_set(workload, trace):
    record = run.measure(workload, seed=1, seconds=0.1, trace=trace,
                         scale=TINY, setup_samples=1)
    line = run.contract_line(record)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {name: m["unit"] for name, m in line["metrics"].items()} == units
    for name, metric in line["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name      # never 0
    if trace:
        assert line["metrics"]["trace.named_pct"]["value"] >= 95


def test_held_out_seed_is_pinned_and_passes():
    for seed in (suite.DEFAULT_SEED, suite.HELD_OUT_SEED):
        plans = suite.load_plans(suite.PINNED_PLANS / f"seed-{seed}.txt")
        assert len(plans) == suite.PLANS >= 1000   # ten beyond the p99
        assert {plan.seed for plan in plans} <= set(suite.fuzz_seeds(seed))
    result = suite.timed_run("crash-check", tiny_plans(), 0.0)
    assert result["pass_frac"] == 1.0


def test_forced_oracle_failure_is_counted(monkeypatch):
    real = suite.fuzz_runner.run_plan
    plans = tiny_plans()

    def flaky(plan, config=None):
        if plan == plans[1]:
            return FuzzResult(plan=str(plan), outcome="fail",
                              detail="forced")
        if plan == plans[2]:
            raise RuntimeError("plan blew up")
        return real(plan, config)

    monkeypatch.setattr(suite.fuzz_runner, "run_plan", flaky)
    result = suite.timed_run("crash-check", plans, 0.0)
    assert result["attempted"] == len(plans)
    assert result["failed"] == 2
    assert result["pass_frac"] == pytest.approx(4 / 6)
    assert any("forced" in error for error in result["errors"])


def test_wedged_simulation_is_counted(monkeypatch):
    real = suite.harness_runner.execute
    calls = {"n": 0}

    def wedge_first(system, trace, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise SimulationError("system 'thynvm' wedged")
        return real(system, trace, **kwargs)

    monkeypatch.setattr(suite.harness_runner, "execute", wedge_first)
    prepared = suite.set_up("kv-btree", 1, TINY, Path("unused"))
    result = suite.timed_run("kv-btree", prepared, 0.05)
    work = prepared[0]
    assert calls["n"] >= 2
    assert result["failed"] == work.units
    assert result["attempted"] == calls["n"] * work.units
    assert 0 < result["pass_frac"] < 1
    assert "wedged" in result["errors"][0]


def test_peak_rss_is_the_run_process_own():
    subprocess.run([sys.executable, "-c",
                    "b = b'x' * (160 << 20)"], check=True)
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    assert children >= 160
    assert child.peak_rss_mb() < 160      # RUSAGE_SELF, not the children


def test_driver_reports_the_run_process_peak_rss(monkeypatch):
    def fake_spawn(mode, workload, seed, seconds, scale, deadline):
        setup = {"setup_s": 0.5, "setup_cpu_s": 0.6}
        if mode == "setup":
            return setup
        return dict(setup, attempted=10, failed=0, ops_per_s=1.0,
                    ops_per_cpu_s=0.9, pass_frac=1.0, unit_ms_p50=1.0,
                    unit_ms_p99=2.0, latency_samples=10, sim_cycles=5,
                    probe_ms=3.0, peak_rss_mb=123.25, errors=[])

    monkeypatch.setattr(run, "_spawn", fake_spawn)
    record = run.measure("kv-btree", 1, 0.1, False, setup_samples=2)
    assert record["metrics"]["peak_rss_mb"] == 123.25


def test_untraced_runs_install_no_wrapper():
    originals = {name: vars(Engine)[name] for name in ("schedule",
                                                        "schedule_at", "run")}
    prepared = suite.set_up("dual-scheme", 1, TINY, Path("unused"))
    suite.timed_run("dual-scheme", prepared, 0.0)
    for owner, names, _layer in spans._entry_points():
        for name in names:
            assert not hasattr(vars(owner).get(name), "__wrapped__"), name
    traced = suite.traced_run("dual-scheme",
                              suite.set_up("dual-scheme", 1, TINY,
                                           Path("unused")))
    assert traced["outputs_equal"] and traced["failed"] == 0
    for name, original in originals.items():
        assert vars(Engine)[name] is original      # restored


def test_tracing_leaves_crash_check_verdicts_unchanged():
    traced = suite.traced_run("crash-check", tiny_plans())
    assert traced["outputs_equal"] and traced["failed"] == 0
    metrics = traced["metrics"]
    assert metrics["fuzz.plans"] == 6
    assert metrics["sim.engine.events"] > 0
    assert metrics["trace.named_pct"] >= 95


def test_modules_map_to_layers():
    assert spans.layer_for_module("repro.core.recovery") == "core.recovery"
    assert spans.layer_for_module("repro.core.controller") == "core"
    assert spans.layer_for_module("repro.mem.mmapstore") == "mem.datastore"
    assert spans.layer_for_module("repro.workloads.kvstore.btree") \
        == "workloads"
    assert spans.layer_for_module("repro.harness.runner") == "other"
    from functools import partial
    from repro.core.checkpoint import CheckpointRun
    tracer = spans.Tracer()
    assert tracer.layer_of(partial(CheckpointRun.__init__)) == "core"


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kv-btree",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_clock_excludes_its_samples_and_scales_by_them():
    clock = hostref.HostClock()
    before = clock.now()
    for _ in range(5):
        clock.sample()
    assert clock.now() - before < 0.001      # samples are not program time
    clock._stamps, clock._values = [0.0, 1.0, 2.0], [3.0, 6.0, 6.0]
    # A unit inside [1, 2] saw the host at half speed: its 0.5 CPU
    # seconds are 0.25 reference seconds.
    assert clock.normalize([(1.25, 1.75)]) == [pytest.approx(0.25)]
    # Around the first sample the window averages 3 and 6 ms.
    assert clock.slowdown(0.25, 0.5) == pytest.approx(1.5)
