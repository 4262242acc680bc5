"""Experiment harness: system assembly, runners, sweeps and tables."""

from .parallel import PointResult, ProgressEvent, RunPoint, run_points
from .runner import RunResult, execute, run_workload
from .systems import PRETTY_NAMES, SYSTEM_NAMES, SimulatedSystem, build_system

__all__ = ["RunResult", "execute", "run_workload",
           "RunPoint", "PointResult", "ProgressEvent", "run_points",
           "PRETTY_NAMES", "SYSTEM_NAMES", "SimulatedSystem", "build_system"]
