"""Parallel execution of independent simulation points.

Every paper figure is a sweep over ``(system, workload, config)``
points, each point an independent, deterministic simulation — an
embarrassingly parallel workload the serial sweeps left on the table.
This module fans a declared point list out over a
``ProcessPoolExecutor`` and merges results *by the declared order*,
never by completion order, so ``--jobs N`` output is byte-identical to
the serial path.

Two design rules keep that guarantee cheap:

* Workers receive a picklable :class:`~repro.workloads.tracespec.TraceSpec`
  and rebuild the trace locally — generators never cross the process
  boundary.
* Workers return an exact :mod:`repro.stats.summary` snapshot, and the
  *serial* path (``jobs=1``) runs the very same worker function inline,
  so both paths share one code path end to end.

Every run simulates every point.  See ``docs/HARNESS.md``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..config import SystemConfig
from ..stats.collector import StatsCollector
from ..stats.summary import stats_from_dict, stats_to_dict
from ..workloads.tracespec import TraceSpec
from .runner import run_workload


@dataclass(frozen=True)
class RunPoint:
    """One independent simulation: a system, a workload, a config."""

    system: str
    trace: TraceSpec
    config: SystemConfig = field(default_factory=SystemConfig)
    label: str = ""

    def describe(self) -> str:
        return self.label or f"{self.system}/{self.trace.cache_token()}"


@dataclass
class PointResult:
    """Outcome of one point, in declared-point order."""

    point: RunPoint
    stats: StatsCollector
    wall_seconds: float     # observability only; never part of results


@dataclass
class ProgressEvent:
    """Fired once per finished point, in declared order, as it lands."""

    index: int              # 0-based position in the point list
    total: int
    point: RunPoint
    wall_seconds: float


ProgressFn = Callable[[ProgressEvent], None]


def fan_out(worker: Callable, payloads: Sequence, jobs: int = 1) -> Iterator:
    """Yield ``worker(payload)`` for each payload, in payload order.

    The generic core of this module, shared with the fuzz campaign:
    ``jobs=1`` runs inline (serial fallback, same code path),
    ``jobs>1`` fans out over one ``ProcessPoolExecutor`` (worker and
    payloads must pickle), ``jobs<=0`` means one worker per CPU.
    Results come back in payload order, never completion order, each
    as soon as it and every result before it have finished.  A consumer
    that stops early cancels the payloads not yet started.
    """
    payloads = list(payloads)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    if len(payloads) <= 1 or jobs <= 1:
        for payload in payloads:
            yield worker(payload)
        return
    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
        futures = [pool.submit(worker, payload) for payload in payloads]
        try:
            for future in futures:
                yield future.result()
        finally:
            for future in futures:
                future.cancel()


def _simulate(payload: Tuple[str, TraceSpec, SystemConfig, int]
              ) -> Tuple[Dict[str, object], float]:
    """Worker body: rebuild the trace, run it, snapshot the stats.

    Module-level so it pickles for ``ProcessPoolExecutor``; the serial
    path calls it inline, guaranteeing one shared code path.
    """
    system, trace, config, max_events = payload
    started = time.perf_counter()
    result = run_workload(system, trace.build(), config,
                          max_events=max_events)
    return stats_to_dict(result.stats), time.perf_counter() - started


def run_points(points: Sequence[RunPoint], jobs: int = 1,
               progress: Optional[ProgressFn] = None,
               max_events: int = 200_000_000,
               ) -> List[PointResult]:
    """Run every point; results ordered by the declared point list.

    ``jobs=1`` runs inline (the serial fallback); ``jobs>1`` fans out
    over a process pool; ``jobs<=0`` uses one worker per CPU.
    ``progress`` fires once per point, in declared order, as soon as
    that point and every point before it have finished.
    """
    points = list(points)
    payloads = [(point.system, point.trace, point.config, max_events)
                for point in points]
    results: List[PointResult] = []
    for index, (snapshot, wall) in enumerate(
            fan_out(_simulate, payloads, jobs=jobs)):
        point = points[index]
        result = PointResult(point=point, stats=stats_from_dict(snapshot),
                             wall_seconds=wall)
        if progress is not None:
            progress(ProgressEvent(index=index, total=len(points),
                                   point=point, wall_seconds=wall))
        results.append(result)
    return results
