"""Experiment definitions: one function per paper table/figure.

Each function runs the relevant workloads on the relevant systems and
returns plain dictionaries; the scripts under ``benchmarks/`` print
them in the paper's row/series layout and EXPERIMENTS.md records the
paper-vs-measured comparison.

``scale`` shrinks or grows every run proportionally (trace length),
so the full suite can execute in minutes on a laptop while keeping the
checkpoint-work-to-execution-work ratio that drives the results.

Every runner declares its full ``(system, workload, config)`` point
list up front and submits it through :mod:`repro.harness.parallel`:
``jobs=1`` (the default) runs serially and ``jobs=N`` fans the same
list over N worker processes; both produce identical results (see
docs/HARNESS.md).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..config import SystemConfig
from ..stats.collector import StatsCollector
from ..workloads.tracespec import TraceSpec, kv_spec, micro_spec, spec_cpu_spec
from .parallel import ProgressFn, RunPoint, run_points

MICRO_WORKLOADS = ("Random", "Streaming", "Sliding")
COMPARED_SYSTEMS = ("ideal_dram", "ideal_nvm", "journal", "shadow", "thynvm")
REQUEST_SIZES = (16, 64, 256, 1024, 4096)
MICRO_FOOTPRINT = 4 * 1024 * 1024


def experiment_config(**overrides) -> SystemConfig:
    """The evaluation configuration (Table 2 defaults)."""
    return SystemConfig(**overrides)


def _micro_spec(name: str, num_ops: int, seed: int = 1) -> TraceSpec:
    if name not in MICRO_WORKLOADS:
        raise ValueError(f"unknown micro workload {name!r}")
    return micro_spec(name.lower(), MICRO_FOOTPRINT, num_ops, seed=seed)


def run_micro(systems: Iterable[str] = COMPARED_SYSTEMS,
              num_ops: int = 16000,
              config: Optional[SystemConfig] = None,
              jobs: int = 1,
              progress: Optional[ProgressFn] = None,
              ) -> Dict[str, Dict[str, StatsCollector]]:
    """All micro-benchmarks on all systems (Figs. 7 and 8)."""
    config = config if config is not None else experiment_config()
    systems = tuple(systems)
    points = [RunPoint(system=system, trace=_micro_spec(workload, num_ops),
                       config=config, label=f"{workload}/{system}")
              for workload in MICRO_WORKLOADS for system in systems]
    stats = iter(run_points(points, jobs=jobs, progress=progress))
    return {workload: {system: next(stats).stats for system in systems}
            for workload in MICRO_WORKLOADS}


def fig7_exec_time(results: Dict[str, Dict[str, StatsCollector]]
                   ) -> Dict[str, Dict[str, float]]:
    """Fig. 7: execution time normalized to Ideal DRAM."""
    series = {}
    for workload, by_system in results.items():
        base = by_system["ideal_dram"].cycles
        series[workload] = {
            system: stats.cycles / base for system, stats in by_system.items()
        }
    return series


def fig8_write_traffic(results: Dict[str, Dict[str, StatsCollector]]
                       ) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Fig. 8: NVM write traffic breakdown + % time checkpointing."""
    series = {}
    for workload, by_system in results.items():
        series[workload] = {}
        for system, stats in by_system.items():
            if system.startswith("ideal"):
                continue
            breakdown = stats.nvm_write_breakdown()
            to_mb = stats.block_bytes / (1 << 20)
            series[workload][system] = {
                "cpu_MB": breakdown["cpu"] * to_mb,
                "checkpoint_MB": breakdown["checkpoint"] * to_mb,
                "migration_MB": breakdown["migration"] * to_mb,
                "other_MB": breakdown["other"] * to_mb,
                "total_MB": stats.nvm_write_bytes / (1 << 20),
                "ckpt_time_pct": 100 * stats.checkpoint_stall_fraction,
            }
    return series


def run_kvstore(structure: str,
                systems: Iterable[str] = COMPARED_SYSTEMS,
                request_sizes: Iterable[int] = REQUEST_SIZES,
                num_ops: int = 1500,
                config: Optional[SystemConfig] = None,
                jobs: int = 1,
                progress: Optional[ProgressFn] = None,
                ) -> Dict[int, Dict[str, StatsCollector]]:
    """Key-value-store sweep over request sizes (Figs. 9 and 10)."""
    config = config if config is not None else experiment_config()
    systems = tuple(systems)
    request_sizes = tuple(request_sizes)
    points: List[RunPoint] = []
    for size in request_sizes:
        # A large resident store spreads entries over many pages, so
        # sparse updates dirty pages sparsely — the regime where shadow
        # paging's full-page copies hurt (paper §5.3).  The preload is
        # capped so the biggest request sizes still fit the heap.
        preload = min(2500, (3 * 1024 * 1024) // (size + 48))
        trace = kv_spec(structure=structure, request_size=size,
                        num_ops=num_ops, preload=preload, key_space=16384)
        points.extend(
            RunPoint(system=system, trace=trace, config=config,
                     label=f"{structure}/{size}B/{system}")
            for system in systems)
    stats = iter(run_points(points, jobs=jobs, progress=progress))
    return {size: {system: next(stats).stats for system in systems}
            for size in request_sizes}


def fig9_throughput(results: Dict[int, Dict[str, StatsCollector]]
                    ) -> Dict[int, Dict[str, float]]:
    """Fig. 9: transaction throughput in KTPS per request size."""
    return {
        size: {system: stats.throughput_tps / 1000
               for system, stats in by_system.items()}
        for size, by_system in results.items()
    }


def fig10_bandwidth(results: Dict[int, Dict[str, StatsCollector]]
                    ) -> Dict[int, Dict[str, float]]:
    """Fig. 10: write bandwidth in MB/s per request size.

    As in the paper, "write bandwidth" means DRAM writes for Ideal
    DRAM and NVM writes for every other system.
    """
    series: Dict[int, Dict[str, float]] = {}
    for size, by_system in results.items():
        series[size] = {}
        for system, stats in by_system.items():
            if system == "ideal_dram":
                bandwidth = stats.dram_write_bandwidth
            else:
                bandwidth = stats.nvm_write_bandwidth
            series[size][system] = bandwidth / (1 << 20)
    return series


def run_spec(systems: Iterable[str] = ("ideal_dram", "ideal_nvm", "thynvm"),
             num_mem_ops: int = 12000,
             config: Optional[SystemConfig] = None,
             benchmarks: Optional[List[str]] = None,
             jobs: int = 1,
             progress: Optional[ProgressFn] = None,
             ) -> Dict[str, Dict[str, StatsCollector]]:
    """SPEC CPU2006 models on the Fig. 11 systems.

    SPEC runs use a longer epoch (1 ms) than the scaled default:
    long-running compute jobs checkpoint at a coarser interval, and the
    paper's 10 ms epochs amortize per-epoch costs over vastly more
    instructions than a 100 µs scaled epoch can.
    """
    if config is None:
        from ..units import ms_to_cycles
        config = experiment_config(epoch_cycles=ms_to_cycles(1))
    from ..workloads.spec import SPEC_MODELS
    names = benchmarks if benchmarks is not None else list(SPEC_MODELS)
    systems = tuple(systems)
    points = [RunPoint(system=system,
                       trace=spec_cpu_spec(name, num_mem_ops),
                       config=config, label=f"{name}/{system}")
              for name in names for system in systems]
    stats = iter(run_points(points, jobs=jobs, progress=progress))
    return {name: {system: next(stats).stats for system in systems}
            for name in names}


def fig11_normalized_ipc(results: Dict[str, Dict[str, StatsCollector]]
                         ) -> Dict[str, Dict[str, float]]:
    """Fig. 11: IPC normalized to Ideal DRAM."""
    series = {}
    for bench, by_system in results.items():
        base = by_system["ideal_dram"].ipc
        series[bench] = {
            system: stats.ipc / base for system, stats in by_system.items()
        }
    return series


def fig12_btt_sensitivity(btt_sizes: Iterable[int] = (256, 512, 1024, 2048,
                                                      4096, 8192),
                          num_ops: int = 1500,
                          config: Optional[SystemConfig] = None,
                          jobs: int = 1,
                          progress: Optional[ProgressFn] = None,
                          ) -> Dict[int, Dict[str, float]]:
    """Fig. 12: hash-table KV store vs BTT size (throughput + traffic)."""
    base = config if config is not None else experiment_config()
    btt_sizes = tuple(btt_sizes)
    trace = kv_spec(structure="hashtable", request_size=64,
                    num_ops=num_ops, preload=max(200, num_ops // 3))
    points = [RunPoint(system="thynvm", trace=trace,
                       config=base.with_overrides(btt_entries=btt_entries),
                       label=f"btt={btt_entries}")
              for btt_entries in btt_sizes]
    ran = run_points(points, jobs=jobs, progress=progress)
    results: Dict[int, Dict[str, float]] = {}
    for btt_entries, result in zip(btt_sizes, ran):
        stats = result.stats
        results[btt_entries] = {
            "throughput_ktps": stats.throughput_tps / 1000,
            "nvm_write_MB": stats.nvm_write_bytes / (1 << 20),
            "epochs_forced_by_overflow": stats.epochs_forced_by_overflow,
        }
    return results


def table1_tradeoff(num_ops: int = 8000,
                    config: Optional[SystemConfig] = None,
                    jobs: int = 1,
                    progress: Optional[ProgressFn] = None,
                    ) -> Dict[str, Dict[str, float]]:
    """Table 1 / §1 claims: uniform-granularity ablations vs ThyNVM.

    Measures, per scheme, the checkpointing-attributable overhead
    (execution time over Ideal DRAM plus explicit checkpoint stalls)
    and the peak translation-metadata footprint.  The workload is the
    Sliding pattern — mixed, shifting locality — so the dual scheme
    actually exercises both granularities.
    """
    config = config if config is not None else experiment_config()
    trace = micro_spec("sliding", 2 * 1024 * 1024, num_ops)
    systems = ("ideal_dram", "thynvm", "thynvm_block_only",
               "thynvm_page_only")
    points = [RunPoint(system=system, trace=trace, config=config,
                       label=f"table1/{system}")
              for system in systems]
    ran = run_points(points, jobs=jobs, progress=progress)
    by_system = {result.point.system: result.stats for result in ran}
    base_cycles = by_system["ideal_dram"].cycles
    results: Dict[str, Dict[str, float]] = {}
    for system in systems[1:]:
        stats = by_system[system]
        metadata_bytes = (stats.btt_peak_entries * config.btt_entry_bytes
                          + stats.ptt_peak_entries * config.ptt_entry_bytes)
        results[system] = {
            "cycles": stats.cycles,
            "overhead_cycles": stats.cycles - base_cycles,
            "ckpt_stall_cycles": (stats.stall_cycles.get("checkpoint")
                                  + stats.stall_cycles.get("flush")
                                  + stats.stall_cycles.get("backpressure")),
            "metadata_peak_bytes": metadata_bytes,
            "nvm_write_blocks": stats.nvm_write_blocks,
        }
    return results
