"""The paper's experiments, each declared once with its sweep and claims.

Every table, figure and claim of the evaluation that ``repro bench``
reproduces is one :class:`Experiment` in :data:`EXPERIMENTS`, named by
its DESIGN.md experiment id.  A declaration holds:

* ``ops`` — the default trace length (``repro bench --ops`` replaces it
  for every selected experiment);
* ``sweep(ops, jobs, progress)`` — the simulations.  Experiments that
  read one sweep two ways (Figs. 7/8, Figs. 9/10) name the same
  function, and ``repro bench`` runs it once;
* ``report(results)`` — the deterministic JSON report of the run;
* ``render(report)`` — the one table printed for it;
* ``claims`` — the paper's shape claims about it, each a
  :class:`Claim` whose predicate reads the report.  Every run checks
  every claim of every experiment it runs.

Sweeps of plain ``(system, TraceSpec, config)`` points go through
:func:`~repro.harness.parallel.run_points`, so ``jobs=N`` fans them out
over N worker processes with results identical to ``jobs=1``.  The
ablation, recovery, multi-core and wear sweeps need a controller
policy, a crash hook, one trace per core or the device's wear
counters, none of which a :class:`RunPoint` carries, so they run
inline.

Trace lengths are scaled down from the paper's ~1 B instructions while
keeping the ratio of checkpoint work to execution work that drives the
results (EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

from ..config import SystemConfig, small_test_config
from ..core.controller import ThyNVMPolicy
from ..core.recovery import read_record
from ..mem.controller import DeviceKind
from ..stats.collector import StatsCollector
from ..units import cycles_to_ns, ms_to_cycles, us_to_cycles
from ..workloads.spec import SPEC_COMPUTE_MODELS, SPEC_MODELS
from ..workloads.tracespec import kv_spec, micro_spec, spec_cpu_spec
from .parallel import ProgressFn, RunPoint, run_points
from .runner import execute, run_workload
from .systems import build_system
from .tables import format_table, geometric_mean

MICRO_WORKLOADS = ("Random", "Streaming", "Sliding")
KV_STRUCTURES = ("hashtable", "rbtree")
COMPARED_SYSTEMS = ("ideal_dram", "ideal_nvm", "journal", "shadow", "thynvm")
SPEC_SYSTEMS = ("ideal_dram", "ideal_nvm", "thynvm")
REQUEST_SIZES = (16, 64, 256, 1024, 4096)
BTT_SIZES = (256, 512, 1024, 2048, 4096, 8192)
EPOCHS_US = (25, 50, 100, 200, 400, 800)
PERSIST_EPOCHS_US = (25, 100, 400)
MICRO_FOOTPRINT = 4 * 1024 * 1024
ABLATION_FOOTPRINT = 2 * 1024 * 1024
SMALL_FOOTPRINT = 128 * 1024

Report = Dict[str, Any]
Sweep = Callable[[int, int, Optional[ProgressFn]], Any]


@dataclass(frozen=True)
class Claim:
    """One shape claim of the paper, checked against a run's report."""

    id: str
    text: str
    holds: Callable[[Report], bool]


def _series(series: Any) -> Report:
    return {"series": series}


@dataclass(frozen=True)
class Experiment:
    """One reproduced table, figure or claim (see the module docstring).

    ``report`` defaults to a sweep whose results are the series itself.
    """

    name: str
    ops: int
    sweep: Sweep
    render: Callable[[Report], str]
    claims: Tuple[Claim, ...]
    report: Callable[[Any], Report] = _series


def experiment_config(**overrides) -> SystemConfig:
    """The evaluation configuration (Table 2 defaults)."""
    return SystemConfig(**overrides)


def _stats(points: List[RunPoint], jobs: int,
           progress: Optional[ProgressFn]) -> Iterator[StatsCollector]:
    """The points' stats, in declared order."""
    return iter([result.stats for result in
                 run_points(points, jobs=jobs, progress=progress)])


# --- sweeps --------------------------------------------------------------

def run_micro(num_ops: int, jobs: int = 1,
              progress: Optional[ProgressFn] = None,
              ) -> Dict[str, Dict[str, StatsCollector]]:
    """Every micro-benchmark on every compared system (Figs. 7 and 8)."""
    config = experiment_config()
    points = [RunPoint(system=system,
                       trace=micro_spec(workload, MICRO_FOOTPRINT, num_ops,
                                        seed=1),
                       config=config, label=f"{workload}/{system}")
              for workload in MICRO_WORKLOADS for system in COMPARED_SYSTEMS]
    stats = _stats(points, jobs, progress)
    return {workload: {system: next(stats) for system in COMPARED_SYSTEMS}
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


def run_kvstore(num_ops: int, jobs: int = 1,
                progress: Optional[ProgressFn] = None,
                ) -> Dict[str, Dict[int, Dict[str, StatsCollector]]]:
    """Both key-value stores over every request size (Figs. 9 and 10)."""
    config = experiment_config()
    points: List[RunPoint] = []
    for structure in KV_STRUCTURES:
        for size in REQUEST_SIZES:
            # A large resident store spreads entries over many pages, so
            # sparse updates dirty pages sparsely — the regime where
            # shadow paging's full-page copies hurt (paper §5.3).  The
            # preload is capped so the biggest requests still fit the heap.
            preload = min(2500, (3 * 1024 * 1024) // (size + 48))
            trace = kv_spec(structure=structure, request_size=size,
                            num_ops=num_ops, preload=preload,
                            key_space=16384)
            points.extend(
                RunPoint(system=system, trace=trace, config=config,
                         label=f"{structure}/{size}B/{system}")
                for system in COMPARED_SYSTEMS)
    stats = _stats(points, jobs, progress)
    return {structure: {size: {system: next(stats)
                               for system in COMPARED_SYSTEMS}
                        for size in REQUEST_SIZES}
            for structure in KV_STRUCTURES}


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


def run_spec(num_mem_ops: int, jobs: int = 1,
             progress: Optional[ProgressFn] = None,
             benchmarks: Optional[List[str]] = None,
             systems: Tuple[str, ...] = SPEC_SYSTEMS,
             ) -> Dict[str, Dict[str, StatsCollector]]:
    """SPEC CPU2006 models (default: Fig. 11's memory-intensive eight).

    SPEC runs use a longer epoch (1 ms) than the scaled default:
    long-running compute jobs checkpoint at a coarser interval, and the
    paper's 10 ms epochs amortize per-epoch costs over vastly more
    instructions than a 100 µs scaled epoch can.
    """
    config = experiment_config(epoch_cycles=ms_to_cycles(1))
    names = benchmarks if benchmarks is not None else list(SPEC_MODELS)
    points = [RunPoint(system=system,
                       trace=spec_cpu_spec(name, num_mem_ops),
                       config=config, label=f"{name}/{system}")
              for name in names for system in systems]
    stats = _stats(points, jobs, progress)
    return {name: {system: next(stats) for system in systems}
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


def fig12_btt_sensitivity(num_ops: int, jobs: int = 1,
                          progress: Optional[ProgressFn] = None,
                          ) -> Dict[int, Dict[str, float]]:
    """Fig. 12: hash-table KV store vs BTT size (throughput + traffic)."""
    base = experiment_config()
    trace = kv_spec(structure="hashtable", request_size=64,
                    num_ops=num_ops, preload=max(200, num_ops // 3))
    points = [RunPoint(system="thynvm", trace=trace,
                       config=base.with_overrides(btt_entries=btt_entries),
                       label=f"btt={btt_entries}")
              for btt_entries in BTT_SIZES]
    return {btt_entries: {
                "throughput_ktps": stats.throughput_tps / 1000,
                "nvm_write_MB": stats.nvm_write_bytes / (1 << 20),
                "epochs_forced_by_overflow": stats.epochs_forced_by_overflow,
            } for btt_entries, stats in zip(BTT_SIZES,
                                            _stats(points, jobs, progress))}


def table1_tradeoff(num_ops: int, jobs: int = 1,
                    progress: Optional[ProgressFn] = None,
                    ) -> Dict[str, Dict[str, float]]:
    """Table 1 / §1 claims: uniform-granularity ablations vs ThyNVM.

    Measures, per scheme, the checkpointing-attributable overhead
    (execution time over Ideal DRAM plus explicit checkpoint stalls)
    and the peak translation-metadata footprint.  The workload is the
    Sliding pattern — mixed, shifting locality — so the dual scheme
    actually exercises both granularities.
    """
    config = experiment_config()
    trace = micro_spec("sliding", ABLATION_FOOTPRINT, num_ops)
    systems = ("ideal_dram", "thynvm", "thynvm_block_only",
               "thynvm_page_only")
    points = [RunPoint(system=system, trace=trace, config=config,
                       label=f"table1/{system}")
              for system in systems]
    by_system = dict(zip(systems, _stats(points, jobs, progress)))
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


def run_ablation(num_ops: int, *_: object) -> Dict[str, Dict[str, float]]:
    """§1/§2.3 design-choice ablations on Sliding (runs inline).

    The full design against §3.4 cooperation off and against the 22/16
    scheme-switch thresholds replaced by never / always promoting.
    """
    variants = (
        ("full design", None, {}),
        ("no cooperation", ThyNVMPolicy(temp_cooperation=False), {}),
        ("never promote", None,
         {"promote_threshold": 63, "demote_threshold": 0}),
        ("always promote", None,
         {"promote_threshold": 1, "demote_threshold": 0}),
    )
    series = {}
    for name, policy, overrides in variants:
        trace = micro_spec("sliding", ABLATION_FOOTPRINT, num_ops).build()
        stats = run_workload("thynvm", trace, experiment_config(**overrides),
                             policy=policy).stats
        series[name] = {
            "cycles": stats.cycles,
            "nvm_write_blocks": stats.nvm_write_blocks,
            "ckpt_pct": 100 * stats.checkpoint_stall_fraction,
            "promoted": stats.pages_promoted,
        }
    return series


def run_persistence_interval(num_ops: int, jobs: int = 1,
                             progress: Optional[ProgressFn] = None,
                             ) -> Dict[int, Dict[str, Dict[str, float]]]:
    """§6 configurable persistence: epoch length x persist barriers.

    The hash-table store under periodic epochs alone and with an
    explicit persist barrier every 16 transactions or every one.
    """
    durability = (("periodic", None), ("persist/16", 16), ("persist/1", 1))
    points = [RunPoint(system="thynvm",
                       trace=kv_spec(structure="hashtable", request_size=64,
                                     num_ops=num_ops, preload=300,
                                     persist_every=every),
                       config=experiment_config(
                           epoch_cycles=us_to_cycles(epoch_us)),
                       label=f"{epoch_us}us/{label}")
              for epoch_us in PERSIST_EPOCHS_US
              for label, every in durability]
    runs = _stats(points, jobs, progress)
    series: Dict[int, Dict[str, Dict[str, float]]] = {}
    for epoch_us in PERSIST_EPOCHS_US:
        series[epoch_us] = {}
        for label, _ in durability:
            stats = next(runs)
            series[epoch_us][label] = {
                "ktps": stats.throughput_tps / 1000,
                "epochs": stats.epochs_completed,
                "nvm_writes": stats.nvm_write_blocks,
            }
    return series


def run_recovery_latency(num_ops: int, *_: object
                         ) -> Dict[str, Dict[str, float]]:
    """§2.2: post-crash recovery cost, ThyNVM vs journal replay (inline).

    ThyNVM crashes mid-run and runs §4.5 recovery (reload tables,
    restore DRAM pages); the journal crashes right after a log becomes
    durable, its worst case, and replays that committed log.  Both read
    what they restore from the NVM recovery record alone.
    """
    config = small_test_config(epoch_cycles=60_000)
    trace = micro_spec("sliding", SMALL_FOOTPRINT, num_ops, seed=2)

    thynvm = build_system("thynvm", config)
    thynvm.memsys.start()
    thynvm.core.run_trace(iter(trace.build()), lambda: None)
    thynvm.engine.run(until=600_000)
    thynvm.memsys.crash()
    recovered = thynvm.memsys.recover()

    journal = build_system("journal", config)
    ctl = journal.memsys
    ctl.start()
    journal.core.run_trace(iter(trace.build()), lambda: None)
    staged = ctl._on_ckpt_stage

    def crash_after_log(stage_index: int) -> None:
        staged(stage_index)
        if stage_index == 1 and ctl._log_plan:
            ctl.crash()

    ctl._on_ckpt_stage = crash_after_log
    journal.engine.run(until=2_000_000)
    if not ctl.crashed:
        ctl.crash()
    record = read_record(ctl.memctrl.functional_store(DeviceKind.NVM))
    journal_cycles = ctl.recovery_cycles_estimate()
    return {
        "thynvm": {"recovery_cycles": recovered.recovery_cycles,
                   "recovery_us": cycles_to_ns(recovered.recovery_cycles)
                   / 1000,
                   "recovered_epoch": recovered.epoch},
        "journal": {"recovery_cycles": journal_cycles,
                    "recovery_us": cycles_to_ns(journal_cycles) / 1000,
                    "log_blocks": len(record.log_slots)},
    }


def run_multicore(num_ops: int, *_: object) -> Dict[int, Dict[str, float]]:
    """Table 2's shared LLC: one Streaming trace per core on 1/2/4 cores.

    Runs inline, since a point carries one trace.  ``num_ops`` is per core.
    """
    series = {}
    for num_cores in (1, 2, 4):
        system = build_system("thynvm", experiment_config(num_cores=num_cores))
        traces = [micro_spec("streaming", 1024 * 1024, num_ops,
                             seed=core).build()
                  for core in range(num_cores)]
        stats = execute(system, None, traces=traces).stats
        series[num_cores] = {
            "cycles": stats.cycles,
            "aggregate_ipc": stats.instructions / stats.cycles,
            "ckpt_stall_fraction": stats.checkpoint_stall_fraction,
        }
    return series


def run_epoch_length(num_ops: int, jobs: int = 1,
                     progress: Optional[ProgressFn] = None,
                     ) -> Dict[int, Dict[str, int]]:
    """The paper's fixed 10 ms epoch, swept (scaled) on Sliding."""
    trace = micro_spec("sliding", ABLATION_FOOTPRINT, num_ops, seed=3)
    points = [RunPoint(system="thynvm", trace=trace,
                       config=experiment_config(
                           epoch_cycles=us_to_cycles(epoch_us)),
                       label=f"epoch={epoch_us}us")
              for epoch_us in EPOCHS_US]
    return {epoch_us: {"cycles": stats.cycles,
                       "epochs": stats.epochs_completed,
                       "nvm_writes": stats.nvm_write_blocks,
                       "ckpt_writes": stats.nvm_writes.get("checkpoint")}
            for epoch_us, stats in zip(EPOCHS_US,
                                       _stats(points, jobs, progress))}


def run_wear(num_ops: int, *_: object) -> Dict[str, Dict[str, float]]:
    """Per-block NVM wear, ThyNVM vs journaling, on Sliding (inline).

    Journaling rewrites each dirty block in place at home plus once in
    the log; ThyNVM ping-pongs checkpoint copies between regions A and
    B, but rewrites its metadata backup region every epoch.
    """
    config = small_test_config(epoch_cycles=60_000)
    series = {}
    for name in ("thynvm", "journal"):
        system = build_system(name, config)
        execute(system, micro_spec("sliding", SMALL_FOOTPRINT, num_ops,
                                   seed=5).build())
        device = system.memctrl.device(DeviceKind.NVM)
        layout = system.memsys.layout
        blocks, total, peak = device.wear_summary((0, layout.backup_base))
        _, _, backup_peak = device.wear_summary(
            (layout.backup_base, layout.backup_base + layout.backup_bytes))
        series[name] = {"data_blocks": blocks, "data_writes": total,
                        "data_peak": peak,
                        "data_mean": total / max(1, blocks),
                        "backup_peak": backup_peak}
    return series


# --- reports, tables and claim helpers -------------------------------------

def _view(view: Callable) -> Callable[[Any], Report]:
    """Report ``{key: {system: stats}}`` runs as ``view``'s series plus
    every run's summary."""
    return lambda results: {
        "series": view(results),
        "points": {str(key): {system: stats.summary()
                              for system, stats in by_system.items()}
                   for key, by_system in results.items()}}


def _per_store(view: Callable) -> Callable[[Any], Report]:
    return lambda kv: {structure: _view(view)(kv[structure])
                       for structure in KV_STRUCTURES}


def _grid(title: str, corner: str, series: Dict[Any, Dict[str, Any]],
          geomean: bool = False) -> str:
    """One row per series key, one column per cell name."""
    columns = list(dict.fromkeys(name for cells in series.values()
                                 for name in cells))
    rows = [[key] + [cells.get(name, "") for name in columns]
            for key, cells in series.items()]
    if geomean:
        rows.append(["geomean"] + [_geomean(series, name)
                                   for name in columns])
    return format_table([corner] + columns, rows, title=title)


def _flat(series: Dict[Any, Dict[Any, Any]]) -> Dict[str, Any]:
    """``{a: {b: cells}}`` as ``{"a/b": cells}``: a row per pair."""
    return {f"{outer}/{inner}": cells for outer, by_inner in series.items()
            for inner, cells in by_inner.items()}


def _geomean(series: Dict[Any, Dict[str, float]], column: str,
             keys: Optional[Iterable] = None) -> float:
    return geometric_mean(series[key][column]
                          for key in (keys if keys is not None else series))


def _each_store(check: Callable[[Dict[int, Dict[str, float]]], bool]
                ) -> Callable[[Report], bool]:
    return lambda report: all(check(report[structure]["series"])
                              for structure in KV_STRUCTURES)


def _at_min(series: Dict[int, Any]) -> Any:
    """The cells at the series' smallest key (size, length, count)."""
    return series[min(series)]


def _at_max(series: Dict[int, Any]) -> Any:
    """The cells at the series' largest key."""
    return series[max(series)]


def _sparse(series: Dict[int, Dict[str, float]], column: str) -> float:
    """Geomean of ``column`` over the request sizes up to 256 B."""
    return _geomean(series, column, [size for size in sorted(series)
                                     if size <= 256])


def _each(series: Dict[Any, Dict[str, Any]], test: Callable) -> bool:
    return all(test(cells) for cells in series.values())


EXPERIMENTS: Dict[str, Experiment] = {e.name: e for e in (
    Experiment(
        "fig7", 12000, run_micro,
        report=_view(fig7_exec_time),
        render=lambda report: _grid(
            "Figure 7: execution time normalized to Ideal DRAM",
            "workload", report["series"], geomean=True),
        claims=(
            Claim("fig7.beats-journal",
                  "ThyNVM runs faster than journaling on every pattern",
                  lambda r: _each(r["series"],
                                  lambda c: c["thynvm"] < c["journal"])),
            Claim("fig7.beats-shadow",
                  "ThyNVM runs faster than shadow paging on every pattern",
                  lambda r: _each(r["series"],
                                  lambda c: c["thynvm"] < c["shadow"])),
            Claim("fig7.shadow-worst-on-random",
                  "shadow paging is slowest on Random",
                  lambda r: r["series"]["Random"]["shadow"] == max(
                      c["shadow"] for c in r["series"].values())),
        )),
    Experiment(
        "fig8", 12000, run_micro,
        report=_view(fig8_write_traffic),
        render=lambda report: _grid(
            "Figure 8: NVM write traffic (MB) and checkpoint-time share",
            "workload/system", _flat(report["series"])),
        claims=(
            Claim("fig8.breakdown-complete",
                  "the cpu/checkpoint/migration/other split sums to every "
                  "run's NVM writes",
                  lambda r: all(
                      sum(p["nvm_write_breakdown"].values())
                      == p["nvm_write_blocks"]
                      for by_system in r["points"].values()
                      for p in by_system.values())),
            Claim("fig8.ckpt-share-vs-journal",
                  "ThyNVM's checkpoint-time share is under half of "
                  "journaling's on every pattern",
                  lambda r: _each(r["series"], lambda c: (
                      c["thynvm"]["ckpt_time_pct"]
                      < c["journal"]["ckpt_time_pct"] / 2))),
            Claim("fig8.ckpt-share-vs-shadow",
                  "ThyNVM's checkpoint-time share is under half of shadow "
                  "paging's on every pattern",
                  lambda r: _each(r["series"], lambda c: (
                      c["thynvm"]["ckpt_time_pct"]
                      < c["shadow"]["ckpt_time_pct"] / 2))),
            Claim("fig8.random-shadow-traffic",
                  "on Random, shadow paging writes over 3x ThyNVM's NVM "
                  "traffic",
                  lambda r: (r["series"]["Random"]["shadow"]["total_MB"]
                             > 3 * r["series"]["Random"]["thynvm"]
                             ["total_MB"])),
            Claim("fig8.streaming-migration",
                  "on Streaming, migration is over 20% of ThyNVM's NVM "
                  "traffic",
                  lambda r: (r["series"]["Streaming"]["thynvm"]
                             ["migration_MB"]
                             > 0.2 * r["series"]["Streaming"]["thynvm"]
                             ["total_MB"])),
        )),
    Experiment(
        "fig9", 1200, run_kvstore,
        report=_per_store(fig9_throughput),
        render=lambda report: "\n\n".join(
            _grid(f"Figure 9 ({structure}): throughput (KTPS)",
                  "request B", report[structure]["series"])
            for structure in KV_STRUCTURES),
        claims=(
            Claim("fig9.beats-shadow",
                  "ThyNVM's geomean throughput beats shadow paging's on "
                  "both stores",
                  _each_store(lambda s: (_geomean(s, "thynvm")
                                         > _geomean(s, "shadow")))),
            Claim("fig9.near-journal",
                  "ThyNVM's geomean throughput is over 0.9x journaling's "
                  "on both stores",
                  _each_store(lambda s: (_geomean(s, "thynvm")
                                         > 0.9 * _geomean(s, "journal")))),
            Claim("fig9.falls-with-size",
                  "every system's throughput is lower at 4 KB requests "
                  "than at 16 B",
                  _each_store(lambda s: all(
                      _at_min(s)[system] > _at_max(s)[system]
                      for system in _at_min(s)))),
        )),
    Experiment(
        "fig10", 1200, run_kvstore,
        report=_per_store(fig10_bandwidth),
        render=lambda report: "\n\n".join(
            _grid(f"Figure 10 ({structure}): write bandwidth (MB/s)",
                  "request B", report[structure]["series"])
            for structure in KV_STRUCTURES),
        claims=(
            Claim("fig10.sparse-below-shadow",
                  "ThyNVM's geomean bandwidth over 16-256 B requests is "
                  "below shadow paging's on both stores",
                  _each_store(lambda s: (_sparse(s, "thynvm")
                                         < _sparse(s, "shadow")))),
            Claim("fig10.smallest-below-shadow",
                  "at 16 B requests ThyNVM uses less bandwidth than shadow "
                  "paging",
                  _each_store(lambda s: (_at_min(s)["thynvm"]
                                         < _at_min(s)["shadow"]))),
            Claim("fig10.grows-with-size",
                  "every system but shadow paging uses more bandwidth at "
                  "4 KB requests than at 16 B",
                  _each_store(lambda s: all(
                      _at_max(s)[system] > _at_min(s)[system]
                      for system in _at_min(s) if system != "shadow"))),
        )),
    Experiment(
        "fig11", 10000, run_spec,
        report=_view(fig11_normalized_ipc),
        render=lambda report: _grid(
            "Figure 11: SPEC IPC normalized to Ideal DRAM", "benchmark",
            report["series"], geomean=True),
        claims=(
            # The gap is wider than the paper's 3.4%: the blocking-load
            # CPU model amplifies the memory-time share (EXPERIMENTS.md).
            Claim("fig11.near-ideal-dram",
                  "ThyNVM's geomean IPC is over 0.65 of Ideal DRAM's",
                  lambda r: _geomean(r["series"], "thynvm") > 0.65),
            Claim("fig11.near-ideal-nvm",
                  "ThyNVM's geomean IPC is over 0.88x Ideal NVM's",
                  lambda r: (_geomean(r["series"], "thynvm")
                             > 0.88 * _geomean(r["series"], "ideal_nvm"))),
        )),
    Experiment(
        "fig12", 1500, fig12_btt_sensitivity,
        render=lambda report: _grid(
            "Figure 12: BTT size sensitivity (hash-table store)",
            "BTT entries", report["series"]),
        claims=(
            Claim("fig12.fewer-overflow-epochs",
                  "the largest BTT forces no more overflow epochs than "
                  "the smallest",
                  lambda r: (_at_max(r["series"])["epochs_forced_by_overflow"]
                             <= _at_min(r["series"])
                             ["epochs_forced_by_overflow"])),
            Claim("fig12.less-traffic",
                  "the largest BTT writes at most 1.05x the smallest's NVM "
                  "traffic",
                  lambda r: (_at_max(r["series"])["nvm_write_MB"]
                             <= _at_min(r["series"])["nvm_write_MB"] * 1.05)),
            Claim("fig12.throughput-holds",
                  "the largest BTT keeps at least 0.95x the smallest's "
                  "throughput",
                  lambda r: (_at_max(r["series"])["throughput_ktps"]
                             >= _at_min(r["series"])["throughput_ktps"]
                             * 0.95)),
        )),
    Experiment(
        "table1", 8000, table1_tradeoff,
        render=lambda report: _grid(
            "Table 1: uniform-granularity ablations vs the dual scheme "
            "(Sliding)", "system", report["series"]),
        claims=(
            Claim("table1.overhead-vs-page-only",
                  "the dual scheme's overhead cycles are under half of "
                  "page-only's (the paper's 86.2% stall cut)",
                  lambda r: (r["series"]["thynvm"]["overhead_cycles"]
                             < 0.5 * r["series"]["thynvm_page_only"]
                             ["overhead_cycles"])),
            # The paper's 26% compares provisioned table sizes; measured
            # peaks on a capacity-capped workload can only show the
            # dual scheme in block-only's ballpark.
            Claim("table1.metadata-vs-block-only",
                  "the dual scheme's peak metadata is at most 1.15x "
                  "block-only's",
                  lambda r: (r["series"]["thynvm"]["metadata_peak_bytes"]
                             <= r["series"]["thynvm_block_only"]
                             ["metadata_peak_bytes"] * 1.15)),
            Claim("table1.page-only-metadata",
                  "page-only's peak metadata is under 0.3x block-only's",
                  lambda r: (r["series"]["thynvm_page_only"]
                             ["metadata_peak_bytes"]
                             < 0.3 * r["series"]["thynvm_block_only"]
                             ["metadata_peak_bytes"])),
        )),
    Experiment(
        "claim-stall", 8000, run_ablation,
        render=lambda report: _grid(
            "Design-choice ablations (Sliding, 2 MiB)", "variant",
            report["series"]),
        claims=(
            Claim("claim-stall.promotes",
                  "the full design promotes pages on Sliding",
                  lambda r: r["series"]["full design"]["promoted"] > 0),
            Claim("claim-stall.vs-never-promote",
                  "the full design takes at most 1.3x the cycles of never "
                  "promoting",
                  lambda r: (r["series"]["full design"]["cycles"]
                             <= r["series"]["never promote"]["cycles"]
                             * 1.3)),
        )),
    Experiment(
        "claim-compute", 12000,
        lambda ops, jobs, progress: run_spec(
            ops, jobs, progress, benchmarks=list(SPEC_COMPUTE_MODELS),
            systems=("ideal_dram", "thynvm")),
        report=_view(fig11_normalized_ipc),
        render=lambda report: _grid(
            "§5.4: compute-bound SPEC IPC normalized to Ideal DRAM",
            "benchmark", report["series"], geomean=True),
        claims=(
            Claim("claim-compute.geomean",
                  "ThyNVM's geomean IPC on compute-bound SPEC is over 0.88 "
                  "of Ideal DRAM's",
                  lambda r: _geomean(r["series"], "thynvm") > 0.88),
            Claim("claim-compute.each",
                  "every compute-bound SPEC model keeps over 0.82 of Ideal "
                  "DRAM's IPC",
                  lambda r: _each(r["series"], lambda c: c["thynvm"] > 0.82)),
        )),
    Experiment(
        "ext-persist", 600, run_persistence_interval,
        render=lambda report: _grid(
            "§6: durability window vs throughput (hash table)",
            "epoch us/durability", _flat(report["series"])),
        claims=(
            Claim("ext-persist.strict-slower",
                  "a persist every transaction lowers throughput at every "
                  "epoch length",
                  lambda r: _each(r["series"], lambda c: (
                      c["persist/1"]["ktps"] < c["periodic"]["ktps"]))),
            Claim("ext-persist.strict-more-epochs",
                  "a persist every transaction adds checkpoints at every "
                  "epoch length",
                  lambda r: _each(r["series"], lambda c: (
                      c["persist/1"]["epochs"] > c["periodic"]["epochs"]))),
            Claim("ext-persist.long-window-cheap",
                  "periodic-only throughput at 400 us epochs is at least "
                  "0.8x that at 25 us",
                  lambda r: (r["series"][400]["periodic"]["ktps"]
                             >= 0.8 * r["series"][25]["periodic"]["ktps"])),
        )),
    Experiment(
        "ext-recovery", 4000, run_recovery_latency,
        render=lambda report: _grid(
            "§2.2: post-crash recovery latency", "system", report["series"]),
        claims=(
            Claim("ext-recovery.recovers",
                  "ThyNVM recovers a committed epoch",
                  lambda r: r["series"]["thynvm"]["recovered_epoch"] >= 0),
            Claim("ext-recovery.log-replayed",
                  "the journal crash leaves committed log blocks to replay",
                  lambda r: r["series"]["journal"]["log_blocks"] > 0),
            Claim("ext-recovery.replay-slower",
                  "journal replay costs over 0.5x ThyNVM's table and page "
                  "reload",
                  lambda r: (r["series"]["journal"]["recovery_cycles"]
                             > r["series"]["thynvm"]["recovery_cycles"]
                             * 0.5)),
        )),
    Experiment(
        "ext-multicore", 4000, run_multicore,
        render=lambda report: _grid(
            "Multi-core scaling (Streaming per core)", "cores",
            report["series"]),
        claims=(
            Claim("ext-multicore.scales",
                  "4 cores retire over 1.5x one core's aggregate IPC",
                  lambda r: (r["series"][4]["aggregate_ipc"]
                             > 1.5 * r["series"][1]["aggregate_ipc"])),
            Claim("ext-multicore.stall-share",
                  "the 4-core checkpoint-stall share stays under 20%",
                  lambda r: r["series"][4]["ckpt_stall_fraction"] < 0.2),
        )),
    Experiment(
        "ext-epoch", 8000, run_epoch_length,
        render=lambda report: _grid(
            "Epoch-length sensitivity (Sliding)", "epoch us",
            report["series"]),
        claims=(
            Claim("ext-epoch.more-epochs",
                  "25 us epochs complete more checkpoints than 800 us "
                  "epochs",
                  lambda r: (_at_min(r["series"])["epochs"]
                             > _at_max(r["series"])["epochs"])),
            Claim("ext-epoch.more-ckpt-writes",
                  "25 us epochs write at least the checkpoint traffic of "
                  "800 us epochs",
                  lambda r: (_at_min(r["series"])["ckpt_writes"]
                             >= _at_max(r["series"])["ckpt_writes"])),
            Claim("ext-epoch.longer-not-slower",
                  "800 us epochs take at most 1.1x the cycles of 25 us "
                  "epochs",
                  lambda r: (_at_max(r["series"])["cycles"]
                             <= _at_min(r["series"])["cycles"] * 1.1)),
        )),
    Experiment(
        "ext-wear", 6000, run_wear,
        render=lambda report: _grid(
            "NVM wear per block (Sliding)", "system", report["series"]),
        claims=(
            Claim("ext-wear.data-peak",
                  "ThyNVM's peak data-block wear is at most 1.2x "
                  "journaling's",
                  lambda r: (r["series"]["thynvm"]["data_peak"]
                             <= r["series"]["journal"]["data_peak"] * 1.2)),
            Claim("ext-wear.backup-hotspot",
                  "ThyNVM's metadata backup region takes writes",
                  lambda r: r["series"]["thynvm"]["backup_peak"] > 0),
        )),
)}
