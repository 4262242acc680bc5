"""Experiment harness: system assembly, runners, sweeps and tables."""

from .parallel import (PointResult, ProgressEvent, RunPoint, cache_key,
                       code_version, run_points, stats_by_point)
from .runner import RunResult, execute, run_workload
from .systems import PRETTY_NAMES, SYSTEM_NAMES, SimulatedSystem, build_system

__all__ = ["RunResult", "execute", "run_workload",
           "RunPoint", "PointResult", "ProgressEvent",
           "run_points", "stats_by_point", "cache_key", "code_version",
           "PRETTY_NAMES", "SYSTEM_NAMES", "SimulatedSystem", "build_system"]
