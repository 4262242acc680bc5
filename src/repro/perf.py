"""Simulator-throughput microbenchmarks (``repro perf``).

Every paper figure replays millions of memory requests through the
engine → queue → controller → device loop, so *simulator* throughput —
host-side events per second, nothing to do with simulated bandwidth —
is the floor on how far traces can scale.  This module measures it on a
fixed deterministic matrix (the five compared systems × the three
Fig. 7 micro-benchmark patterns) and records the numbers in
``BENCH_PERF.json`` at the repo root: the perf trajectory.  Each
optimization pass appends an entry, so a regression shows up as a drop
between consecutive entries (CI's perf-smoke job warns on >25%).

Wall-clock numbers are machine-dependent; the *simulated* outcomes
(cycles, events, requests) in each cell are fully deterministic and
double as a cheap cross-check that a perf run exercised the exact
workload the previous entries did.  ``--repeat N`` runs the matrix N
times, each cell on a fresh machine every time, and records the
median, min and max wall time per cell and for the totals; a repeat
whose simulated outcome differs from the first is a determinism bug
and raises :class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from .config import SystemConfig
from .errors import SimulationError
from .harness.experiments import MICRO_FOOTPRINT, experiment_config
from .harness.runner import execute
from .harness.systems import build_system
from .workloads.tracespec import micro_spec

PERF_SYSTEMS = ("ideal_dram", "ideal_nvm", "journal", "shadow", "thynvm")
PERF_WORKLOADS = ("random", "streaming", "sliding")
DEFAULT_OPS = 12000      # the Fig. 7 default trace length
QUICK_OPS = 3000         # CI smoke / laptop-friendly
DEFAULT_PATH = Path("BENCH_PERF.json")
SEED = 1

SCHEMA = {
    "description": "Simulator-core perf trajectory (see docs/PERFORMANCE.md). "
                   "Host events/sec on a fixed workload matrix; appended to "
                   "by `repro perf`, compared by CI's perf-smoke job.",
    # 2: entries carry ``repeat`` and wall-time spreads (``wall_min``,
    # ``wall_max``); an entry without ``repeat`` is one shot (repeat 1).
    "schema": 2,
}
#: A cell's simulated outcome: equal on every repeat, or a bug.
DETERMINISTIC = ("cycles", "events", "requests", "requests_issued")


def _run_cell(workload: str, system: str, ops: int,
              config: Optional[SystemConfig] = None,
              store: str = "auto") -> Dict[str, object]:
    """Time one (workload, system) cell; returns its measurement row.

    ``store`` is the functional-store axis: ``"mmap"`` prices the
    file-backed store's per-service cost against the default stores
    (docs/PERSISTENCE.md).  An mmap cell gets a throwaway image
    directory, removed after the measurement.
    """
    config = config if config is not None else experiment_config()
    store_dir: Optional[str] = None
    if store == "mmap":
        store_dir = tempfile.mkdtemp(prefix="repro-perf-store-")
        # msync "none": the axis prices the store *service* surface
        # (every splice still lands in the OS page cache — the SIGKILL
        # durability boundary crashproc tests).  Commit-time medium
        # flushes are synchronous disk I/O, a durability knob priced
        # by the --msync flag on real runs, not a service-path cost.
        config = dataclasses.replace(config, store_dir=store_dir,
                                     msync_policy="none")
    trace = micro_spec(workload, MICRO_FOOTPRINT, ops, seed=SEED).build()
    try:
        machine = build_system(system, config)
        started = time.perf_counter()
        result = execute(machine, trace)
        wall = time.perf_counter() - started
    finally:
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)
    stats = result.stats
    requests = (stats.nvm_reads.total() + stats.nvm_writes.total()
                + stats.dram_reads.total() + stats.dram_writes.total())
    events = machine.engine.events_fired
    return {
        "workload": workload,
        "system": system,
        "ops": ops,
        # Deterministic simulated outcomes (cross-checkable):
        "cycles": stats.cycles,
        "events": events,
        # ``requests`` stays the per-block service count (comparable
        # with every older entry); ``requests_issued`` counts producer
        # API calls — a bulk run is one issue however many blocks it
        # covers, so this is the host-side object-churn figure the
        # batched core shrinks.
        "requests": requests,
        "requests_issued": machine.memctrl.requests_issued,
        # Host-side measurements:
        "wall_seconds": round(wall, 4),
        "events_per_sec": round(events / wall) if wall else 0,
        "requests_per_sec": round(requests / wall) if wall else 0,
    }


def _rates(row: Dict[str, object], walls: List[float]) -> None:
    """Fill ``row``'s wall-time fields from its repeats' ``walls``: the
    median is ``wall_seconds`` (and prices the rates), min and max the
    spread."""
    wall = statistics.median(walls)
    row["wall_seconds"] = round(wall, 4)
    row["wall_min"] = round(min(walls), 4)
    row["wall_max"] = round(max(walls), 4)
    row["events_per_sec"] = round(row["events"] / wall) if wall else 0
    row["requests_per_sec"] = round(row["requests"] / wall) if wall else 0


def run_perf(ops: Optional[int] = None, quick: bool = False,
             label: Optional[str] = None,
             systems: Iterable[str] = PERF_SYSTEMS,
             workloads: Iterable[str] = PERF_WORKLOADS,
             store: str = "auto", repeat: int = 1,
             progress=None) -> Dict[str, object]:
    """Run the matrix ``repeat`` times; return one trajectory entry.

    Every repeat runs every cell once, on a freshly built machine.
    Raises :class:`SimulationError` when a repeat's cycles, events,
    requests or requests issued differ from the first repeat's.
    """
    if repeat < 1:
        raise SimulationError(f"--repeat must be at least 1, got {repeat}")
    ops = ops if ops is not None else (QUICK_OPS if quick else DEFAULT_OPS)
    matrix = [(w, s) for w in workloads for s in systems]
    runs: List[List[Dict[str, object]]] = []
    for round_index in range(repeat):
        cells = []
        for index, (workload, system) in enumerate(matrix):
            cell = _run_cell(workload, system, ops, store=store)
            cells.append(cell)
            if progress is not None:
                progress(round_index * len(matrix) + index,
                         repeat * len(matrix), cell)
        runs.append(cells)
    first = runs[0]
    for later in runs[1:]:
        for cell, again in zip(first, later):
            moved = [key for key in DETERMINISTIC if cell[key] != again[key]]
            if moved:
                raise SimulationError(
                    f"perf cell {cell['workload']}/{cell['system']} is not "
                    f"deterministic: {', '.join(moved)} differ between "
                    f"repeats ({[cell[key] for key in moved]} vs "
                    f"{[again[key] for key in moved]})")
    cells = []
    for position, cell in enumerate(first):
        row = dict(cell)
        _rates(row, [run[position]["wall_seconds"] for run in runs])
        cells.append(row)
    totals: Dict[str, object] = {
        "events": sum(cell["events"] for cell in first),
        "requests": sum(cell["requests"] for cell in first),
        "requests_issued": sum(cell["requests_issued"] for cell in first),
    }
    _rates(totals, [sum(cell["wall_seconds"] for cell in run)
                    for run in runs])
    return {
        "label": label or ("quick" if quick else "full"),
        "mode": "quick" if quick else "full",
        "store": store,
        "ops": ops,
        "repeat": repeat,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "cells": cells,
        "totals": totals,
    }


# --- the trajectory file -------------------------------------------------


def load_trajectory(path: Path = DEFAULT_PATH) -> Dict[str, object]:
    """The on-disk trajectory (an empty one if the file is missing)."""
    path = Path(path)
    if not path.exists():
        return {**SCHEMA, "entries": []}
    with path.open() as handle:
        return json.load(handle)


def append_entry(entry: Dict[str, object],
                 path: Path = DEFAULT_PATH) -> Dict[str, object]:
    """Append ``entry`` to the trajectory and rewrite the file, at the
    current schema (older entries read as one-shot, repeat 1)."""
    trajectory = load_trajectory(path)
    trajectory.update(SCHEMA)
    trajectory.setdefault("entries", []).append(entry)
    with Path(path).open("w") as handle:
        json.dump(trajectory, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return trajectory


def _matrix_shape(entry: Dict[str, object]) -> Optional[tuple]:
    """The sorted (workload, system) pairs an entry measured, or None
    for a malformed entry."""
    cells = entry.get("cells")
    if not isinstance(cells, list) or not cells:
        return None
    try:
        return tuple(sorted((c["workload"], c["system"]) for c in cells))
    except (TypeError, KeyError):
        return None


def find_baseline(trajectory: Dict[str, object],
                  mode: Optional[str] = None,
                  ops: Optional[int] = None,
                  shape: Optional[tuple] = None,
                  store: Optional[str] = None,
                  ) -> Optional[Dict[str, object]]:
    """Most recent entry measuring the *same thing*: same mode, same
    trace length, same (workload, system) matrix, same store backend.

    Events/sec depends on every one of those — a quick (3k-op) run
    compared against a full (12k-op) baseline reports a phantom
    regression or a phantom win, a partial matrix is not comparable
    to the full one, and an mmap-store run prices real file-splice
    work the in-memory stores never do.  Entries that don't match
    every provided criterion are skipped, and when nothing matches
    (including an empty or missing trajectory) the result is simply
    "no baseline" — never a cross-mode fallback.  Entries recorded
    before the store axis existed count as ``"auto"``.
    """
    entries = trajectory.get("entries") or []
    if not isinstance(entries, list):
        return None
    for entry in reversed(entries):
        if not isinstance(entry, dict):
            continue
        if entry.get("totals", {}).get("events_per_sec") is None:
            continue
        if mode is not None and entry.get("mode") != mode:
            continue
        if ops is not None and entry.get("ops") != ops:
            continue
        if shape is not None and _matrix_shape(entry) != shape:
            continue
        if store is not None and entry.get("store", "auto") != store:
            continue
        return entry
    return None


def compare_to_baseline(entry: Dict[str, object],
                        baseline: Dict[str, object]) -> float:
    """events/sec ratio of ``entry`` over ``baseline`` (1.0 = parity)."""
    base_rate = baseline["totals"]["events_per_sec"]
    rate = entry["totals"]["events_per_sec"]
    return rate / base_rate if base_rate else float("inf")


def rate_spread(entry: Dict[str, object]) -> Tuple[float, float]:
    """An entry's (slowest, fastest) total events/sec over its repeats.

    An entry recorded before repeats existed has no spread: both ends
    are its one rate.
    """
    totals = entry["totals"]
    if not totals.get("wall_min"):
        rate = totals["events_per_sec"]
        return rate, rate
    events = totals["events"]
    return events / totals["wall_max"], events / totals["wall_min"]


def below_spread(entry: Dict[str, object], baseline: Dict[str, object],
                 threshold: float) -> bool:
    """Whether ``entry``'s median events/sec falls more than
    ``threshold`` below the *slowest* repeat of ``baseline``: a drop
    the baseline's own run-to-run spread does not explain."""
    slowest, _fastest = rate_spread(baseline)
    return entry["totals"]["events_per_sec"] < slowest * (1.0 - threshold)


# --- CLI front-end (wired up in repro.cli) ------------------------------


def main(args) -> int:
    """``repro perf``: run the matrix, update the trajectory, report."""
    def progress(index: int, total: int, cell: Dict[str, object]) -> None:
        print(f"[{index + 1:2d}/{total:2d}] "
              f"{cell['workload']}/{cell['system']:<12s} "
              f"{cell['wall_seconds']:7.3f}s "
              f"{cell['events_per_sec']:>9,d} ev/s", file=sys.stderr)

    store = getattr(args, "store", None) or "auto"
    entry = run_perf(ops=args.ops, quick=args.quick, label=args.label,
                     store=store, repeat=getattr(args, "repeat", 1),
                     progress=None if args.json else progress)
    path = Path(args.output)
    baseline = find_baseline(load_trajectory(path), mode=entry["mode"],
                             ops=entry["ops"], shape=_matrix_shape(entry),
                             store=store)

    if args.json:
        print(json.dumps(entry, indent=2, sort_keys=True))
    else:
        totals = entry["totals"]
        print(f"perf: {len(entry['cells'])} cells x {entry['repeat']}, "
              f"{totals['events']:,d} events in "
              f"{totals['wall_seconds']:.2f}s "
              f"({totals['wall_min']:.2f}-{totals['wall_max']:.2f}s) -> "
              f"{totals['events_per_sec']:,d} events/sec, "
              f"{totals['requests_per_sec']:,d} requests/sec")
        if baseline is not None:
            ratio = compare_to_baseline(entry, baseline)
            slowest, fastest = rate_spread(baseline)
            print(f"perf: {ratio:.2f}x vs baseline "
                  f"{baseline.get('label')!r} "
                  f"({baseline['totals']['events_per_sec']:,d} events/sec, "
                  f"{slowest:,.0f}-{fastest:,.0f} over "
                  f"{baseline.get('repeat', 1)} repeat(s), "
                  f"recorded {baseline.get('recorded_at')})")
        else:
            print("perf: no comparable baseline (same mode/ops/matrix) "
                  f"in {path}")

    exit_code = 0
    if args.check and baseline is not None and below_spread(
            entry, baseline, args.threshold):
        slowest, _fastest = rate_spread(baseline)
        # GitHub Actions warning annotation: informational, the job
        # itself stays green (wall clock on shared runners is noisy).
        print(f"::warning title=perf-smoke::events/sec dropped to "
              f"{entry['totals']['events_per_sec']:,d}, more than "
              f"{args.threshold:.0%} below the slowest repeat of baseline "
              f"{baseline.get('label')!r} ({slowest:,.0f}); "
              f"see BENCH_PERF.json")
    if not args.no_write:
        append_entry(entry, path)
        print(f"perf: appended entry {entry['label']!r} to {path}",
              file=sys.stderr)
    return exit_code
