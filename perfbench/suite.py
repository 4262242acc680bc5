"""The benchmark's three workloads, driven through public entry points.

* ``kv-btree``    -- ``thynvm`` running the Fig. 9 B+-tree key-value
  store (Table 2 config); unit = transaction.
* ``dual-scheme`` -- ``thynvm`` on the Fig. 7 ``sliding`` pattern over a
  4 MiB footprint; unit = micro access.
* ``crash-check`` -- the full-mode ``repro fuzz`` plan space replayed
  plan by plan through ``fuzz.runner.run_plan``; unit = plan.

The simulation workloads go through ``harness.systems.build_system``
and ``harness.runner.execute`` only.  Every generator takes its seed
from the benchmark's ``--seed``, and every simulation run builds a
fresh machine, so modelled caches start empty.

The load is a closed loop: one unit starts only when the previous one
has completed.  :func:`timed_run` repeats a fixed amount of work until
the time budget is spent, timing it on a :class:`hostref.HostClock`;
:func:`traced_run` runs the same work once untraced and once under
:mod:`spans`, and checks that both give the same simulated outputs.
"""

from __future__ import annotations

import gc
import itertools
import random
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.config import SystemConfig
from repro.cpu.trace import OpKind
from repro.errors import SimulationError
from repro.fuzz import runner as fuzz_runner
from repro.fuzz.campaign import CampaignOptions, generate_plans
from repro.fuzz.plan import FUZZ_SYSTEMS, CrashPlan, parse_plan
from repro.fuzz.workloads import WORKLOAD_NAMES
from repro.harness import runner as harness_runner
from repro.harness.systems import build_system
from repro.mem.controller import DeviceKind
from repro.stats.summary import stats_to_dict
from repro.workloads.kvstore import KVWorkload, kv_trace
from repro.workloads.micro import sliding_trace

import hostref
import spans

WORKLOADS = ("kv-btree", "dual-scheme", "crash-check")

#: The seed a change is tuned on, and the one kept back to confirm it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

#: Crash-check plan lists pinned in the repository, one file per seed.
PINNED_PLANS = Path(__file__).resolve().parent / "plans"

#: Fig. 9 store: 64 B values, 2,500-entry warm preload, 16,384 keys,
#: 50/40/10 search/insert/delete.
KV_TRANSACTIONS = 3000
KV_PRELOAD = 2500
#: Fig. 7 sliding pattern; one transaction marker per 16 accesses.
DUAL_ACCESSES = 36_000
DUAL_FOOTPRINT = 4 * 1024 * 1024
DUAL_ACCESSES_PER_TXN = 16

#: Crash-check plans per seed, drawn from this many fuzz seeds' plan
#: spaces; more than 1,000 leaves ten beyond the 99th percentile.
PLANS = 1200
FUZZ_SEEDS_PER_SEED = 4

#: Transactions per latency slice.  One transaction takes well under a
#: millisecond of host time, too short to time on its own; a slice
#: takes about 10 ms on a 2-vCPU host.
KV_SLICE_TXNS = 10
DUAL_SLICE_TXNS = 4


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


# --- crash-check inputs ------------------------------------------------------

def fuzz_seeds(seed: int) -> List[int]:
    """The fuzz seeds whose plan spaces crash-check's input mixes;
    different benchmark seeds never share one."""
    return [FUZZ_SEEDS_PER_SEED * seed + index
            for index in range(FUZZ_SEEDS_PER_SEED)]


def enumerate_plans(seed: int) -> List[str]:
    """Crash-check's input for ``seed``: ``PLANS`` plans drawn at random
    from the full-mode fuzz plan spaces of :func:`fuzz_seeds`, the same
    number from every system x fuzz-workload pair, in a seeded order.

    The census and the plan generator are the campaign's own (``repro
    fuzz``'s full mode: 5 systems x sparse/hotpage, three occurrences
    per site, four jitters).  Plans of one pair cost alike, and one fuzz
    seed's schedule makes all of its plans a little cheaper or dearer,
    so a fixed mix of pairs drawn over several fuzz seeds keeps seeds
    comparable.
    """
    options = CampaignOptions()
    mode = options.mode
    groups: Dict[Tuple[str, str], List[str]] = {}
    for fuzz_seed in fuzz_seeds(seed):
        counts = {(system, workload): fuzz_runner.census(
                      system, workload, fuzz_seed, mode.epochs, mode.blocks)
                  for system in FUZZ_SYSTEMS for workload in WORKLOAD_NAMES}
        for plan in generate_plans(counts, options):
            groups.setdefault((plan.system, plan.workload), []).append(
                str(plan.replace(seed=fuzz_seed)))
    rng = random.Random(seed)
    plans = [plan for pair in sorted(groups)
             for plan in rng.sample(groups[pair], PLANS // len(groups))]
    rng.shuffle(plans)
    return plans


def write_plans(path: Path, seed: int, plans: List[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    header = (f"# crash-check input, seed {seed}: {len(plans)} plans drawn "
              f"from the full-mode fuzz plan spaces of fuzz seeds "
              f"{', '.join(map(str, fuzz_seeds(seed)))}\n")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(header + "".join(plan + "\n" for plan in plans))
    tmp.replace(path)


def plan_file(seed: int, cache_dir: Path) -> Path:
    """The pinned plan list for ``seed``; other seeds are enumerated
    once from the checkout's own code and kept under ``cache_dir``."""
    pinned = PINNED_PLANS / f"seed-{seed}.txt"
    if pinned.exists():
        return pinned
    cached = cache_dir / f"seed-{seed}.txt"
    if not cached.exists():
        write_plans(cached, seed, enumerate_plans(seed))
    return cached


def load_plans(path: Path, scale: float = 1.0) -> List[CrashPlan]:
    plans = [parse_plan(line) for line in path.read_text().splitlines()
             if line and not line.startswith("#")]
    return plans[:max(1, round(len(plans) * scale))]


# --- set-up ------------------------------------------------------------------

class SimWorkload:
    """One ``thynvm`` simulation, rebuilt from scratch for every run."""

    def __init__(self, name: str, seed: int, scale: float) -> None:
        self.name = name
        self.seed = seed
        if name == "kv-btree":
            self.txns = max(2, round(KV_TRANSACTIONS * scale))
            self.units = self.txns
            self.slice_txns = KV_SLICE_TXNS
            self.kv = KVWorkload(structure="btree", request_size=64,
                                 num_ops=self.txns,
                                 preload=max(1, round(KV_PRELOAD * scale)),
                                 key_space=16384, search_frac=0.5,
                                 insert_frac=0.4, seed=seed)
        else:
            self.txns = max(1, round(DUAL_ACCESSES * scale)
                            // DUAL_ACCESSES_PER_TXN)
            self.units = self.txns * DUAL_ACCESSES_PER_TXN
            self.slice_txns = DUAL_SLICE_TXNS

    def prepare(self) -> Tuple[object, Iterator]:
        """Build the machine and its trace.  The KV preload runs here
        (it is the generator's first step), not in the timed phase."""
        system = build_system("thynvm", SystemConfig())
        if self.name == "kv-btree":
            trace = kv_trace(self.kv)
            trace = itertools.chain([next(trace)], trace)
        else:
            trace = sliding_trace(DUAL_FOOTPRINT, self.units,
                                  txn_every=DUAL_ACCESSES_PER_TXN,
                                  seed=self.seed)
        return system, trace


def set_up(workload: str, seed: int, scale: float, cache_dir: Path):
    """Everything before the first timed unit: the simulation workloads
    build their first machine (and KV preload), crash-check loads its
    plan list."""
    if workload == "crash-check":
        return load_plans(plan_file(seed, cache_dir), scale)
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    work = SimWorkload(workload, seed, scale)
    return work, work.prepare()


# --- simulation runs ---------------------------------------------------------

def stamp_slices(trace: Iterator, every: int, marks: List[float],
                 clock: hostref.HostClock) -> Iterator:
    """Pass ``trace`` through, noting the program clock at every
    ``every``-th transaction marker, where the clock may also take its
    reference sample."""
    txn, seen = OpKind.TXN, 0
    for op in trace:
        if op[0] is txn:
            seen += 1
            if seen == every:
                marks.append(clock.now())
                clock.tick()
                seen = 0
        yield op


def sim_outputs(system) -> Dict[str, object]:
    """Everything a simulation run must reproduce exactly."""
    return {"stats": stats_to_dict(system.stats),
            "events": system.engine.events_fired,
            "requests_issued": system.memctrl.requests_issued}


def run_sim(work: SimWorkload, prepared, clock: hostref.HostClock,
            tracer: Optional[spans.Tracer] = None) -> Dict[str, object]:
    """Execute one prepared simulation and time it.

    ``error`` is set when the run wedged or lost transactions.  Untraced
    runs also return their latency slices as program-clock intervals.
    """
    system, trace = prepared
    marks: List[float] = []
    if tracer is None:
        trace = stamp_slices(trace, work.slice_txns, marks, clock)
    else:
        trace = tracer.iterate("workloads", trace)
    gc.collect()
    clock.tick()
    error = None
    start = clock.now()
    marks.append(start)
    try:
        if tracer is None:
            harness_runner.execute(system, trace)
        else:
            with tracer.phase():
                harness_runner.execute(system, trace)
    except SimulationError as exc:
        error = f"{type(exc).__name__}: {exc}"
    end = clock.now()
    marks.append(end)
    if error is None and system.stats.transactions != work.txns:
        error = f"saw {system.stats.transactions} of {work.txns} transactions"
    return {"cpu_s": end - start, "error": error, "system": system,
            "slices": list(zip(marks, marks[1:])),
            "outputs": None if error else sim_outputs(system)}


def timed_sim(work: SimWorkload, prepared, seconds: float,
              clock: hostref.HostClock) -> Dict[str, object]:
    """Repeat the simulation (at least once) until ``seconds`` of
    program CPU time are spent.

    A run counts only if it drained, saw every transaction and produced
    outputs identical to the workload's other runs (the first good run
    is the reference).
    """
    runs = failed = 0
    spent = cpu = 0.0
    slices: List[Tuple[float, float]] = []
    reference: Optional[Dict[str, object]] = None
    sim_cycles = 0
    errors: List[str] = []
    while True:
        run = run_sim(work, prepared, clock)
        runs += 1
        spent += run["cpu_s"]
        error = run["error"]
        if error is None and reference is None:
            reference = run["outputs"]
            sim_cycles = run["system"].stats.cycles
        elif error is None and run["outputs"] != reference:
            error = "outputs differ from the workload's other runs"
        if error is None:
            cpu += run["cpu_s"]
            slices.extend(run["slices"])
        else:
            failed += 1
            errors.append(error)
        if spent >= seconds:
            break
        del run, prepared
        gc.collect()                   # free the old machine first
        prepared = work.prepare()
    good_units = work.units * (runs - failed)
    latencies = clock.normalize(slices)
    return {"attempted": work.units * runs, "failed": work.units * failed,
            "ops_per_s": good_units / sum(latencies) if latencies else 0.0,
            "ops_per_cpu_s": good_units / cpu if cpu else 0.0,
            "unit_ms": [value * 1000 for value in latencies],
            "sim_cycles": sim_cycles, "errors": errors}


# --- crash-check runs --------------------------------------------------------

def replay(plan: CrashPlan) -> Dict[str, object]:
    """One plan: crash, recover, check the committed-prefix oracle."""
    try:
        return fuzz_runner.run_plan(plan).to_dict()
    except Exception as exc:   # a broken plan must not stop the run
        return {"plan": str(plan), "outcome": "error",
                "detail": f"{type(exc).__name__}: {exc}"}


def timed_plans(plans: List[CrashPlan], seconds: float,
                clock: hostref.HostClock) -> Dict[str, object]:
    """Replay whole passes over ``plans``: as many as come closest to
    ``seconds`` of program CPU time, and at least one.

    A plan counts only if its oracle passed; ``fail``, ``unreached`` and
    a run that raised count against it.
    """
    intervals: List[Tuple[float, float]] = []
    failed = sim_cycles = 0
    spent = 0.0
    errors: List[str] = []
    passes = 0
    while passes == 0 or spent + spent / passes / 2 < seconds:
        for plan in plans:
            clock.tick()
            start = clock.now()
            result = replay(plan)
            end = clock.now()
            intervals.append((start, end))
            spent += end - start
            if result["outcome"] != "pass":
                failed += 1
                errors.append(f"{plan}: {result['outcome']} "
                              f"{result['detail']}")
            if passes == 0:
                sim_cycles += result.get("crash_cycle") or 0
        passes += 1
    latencies = clock.normalize(intervals)
    return {"attempted": len(intervals), "failed": failed,
            "ops_per_s": len(intervals) / sum(latencies),
            "ops_per_cpu_s": len(intervals) / spent if spent else 0.0,
            "unit_ms": [value * 1000 for value in latencies],
            "sim_cycles": sim_cycles, "errors": errors}


def plan_pass(plans: List[CrashPlan], tracer: Optional[spans.Tracer] = None,
              counters: Optional["ModelCounters"] = None
              ) -> Tuple[List[Dict[str, object]], float]:
    """One pass over ``plans``: every verdict, and the CPU time taken.
    Traced passes add each plan's machine to ``counters``."""
    if tracer is None:
        start = time.process_time()
        verdicts = [replay(plan) for plan in plans]
        return verdicts, time.process_time() - start
    verdicts = []
    with tracer.phase():
        for index, plan in enumerate(plans):
            tracer.unit = index
            verdicts.append(replay(plan))
            for system in tracer.take_systems():
                counters.add(*system)
    return verdicts, tracer.cpu_s


# --- the two kinds of run ----------------------------------------------------

def timed_run(workload: str, prepared, seconds: float) -> Dict[str, object]:
    """The untraced, measured run: end-to-end metrics.

    Host times are in reference seconds (see :mod:`hostref`); the raw
    CPU rate is returned beside them.
    """
    clock = hostref.HostClock()
    if workload == "crash-check":
        result = timed_plans(prepared, seconds, clock)
    else:
        work, first = prepared
        result = timed_sim(work, first, seconds, clock)
    latencies = result["unit_ms"]
    attempted = result["attempted"]
    return {
        "attempted": attempted,
        "failed": result["failed"],
        "ops_per_s": result["ops_per_s"],
        "ops_per_cpu_s": result["ops_per_cpu_s"],
        "pass_frac": (attempted - result["failed"]) / attempted,
        "unit_ms_p50": statistics.median(latencies) if latencies else 0.0,
        "unit_ms_p99": percentile(latencies, 99),
        "latency_samples": len(latencies),
        "sim_cycles": result["sim_cycles"],
        "probe_ms": clock.probe_ms(),
        "errors": result["errors"][:5],
    }


def traced_run(workload: str, prepared) -> Dict[str, object]:
    """One untraced and one traced pass over the same work.

    The untraced pass gives host CPU per simulated event and, for the
    simulation workloads, the model counters; the traced pass gives the
    per-layer split (and crash-check's counters, since its machines are
    built inside ``run_plan``).  Both passes must give equal simulated
    outputs.  Host times here are raw CPU seconds.
    """
    tracer = spans.Tracer()
    counters = ModelCounters()
    if workload == "crash-check":
        plain, plain_cpu = plan_pass(prepared)
        with tracer.installed():
            traced, _ = plan_pass(prepared, tracer, counters)
        verdicts = plain
        equal = plain == traced
        units = len(prepared)
        failed = sum(v["outcome"] != "pass" for v in plain + traced)
    else:
        work, first = prepared
        clock = hostref.HostClock()
        plain = run_sim(work, first, clock)
        plain_cpu = plain["cpu_s"]
        with tracer.installed():
            traced = run_sim(work, work.prepare(), clock, tracer)
        system = plain["system"]
        counters.add(system.engine, system.memctrl, system.stats)
        equal = plain["outputs"] is not None and \
            plain["outputs"] == traced["outputs"]
        units = work.units
        verdicts = []
        failed = work.units * ((plain["error"] is not None)
                               + (traced["error"] is not None))
    metrics = tracer.layer_metrics()
    metrics.update(counters.metrics(verdicts))
    events = metrics["sim.engine.events"]
    metrics["sim.engine.us_per_event"] = (plain_cpu * 1e6 / events
                                          if events else 0.0)
    metrics["trace.overhead_pct"] = 100.0 * (tracer.cpu_s / plain_cpu - 1)
    return {"attempted": 2 * units, "failed": failed + (not equal),
            "outputs_equal": equal, "metrics": metrics,
            "edges": tracer.edge_table()}


# --- model counters ----------------------------------------------------------

def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


class ModelCounters:
    """Exact model counters summed over machines, read from the
    simulator's public state."""

    def __init__(self) -> None:
        self.total: Counter = Counter()

    def add(self, engine, memctrl, stats) -> None:
        nvm = memctrl.device(DeviceKind.NVM)
        dram = memctrl.device(DeviceKind.DRAM)
        # Directly driven (crash-check) machines never set an end cycle.
        cycles = stats.cycles if stats.end_cycle else engine.now
        self.total.update({
            "events": engine.events_fired,
            "requests": memctrl.requests_issued,
            "cycles": cycles,
            "read_lat": stats.read_latency.total,
            "read_n": stats.read_latency.count,
            "write_lat": stats.write_latency.total,
            "write_n": stats.write_latency.count,
            "nvm_hits": nvm.row_hits,
            "nvm_access": nvm.row_hits + nvm.row_misses,
            "dram_hits": dram.row_hits,
            "dram_access": dram.row_hits + dram.row_misses,
            "nvm_busy": nvm.busy_cycles,
            "nvm_bank_cycles": nvm.num_banks * cycles,
            "L1": stats.cache_hits.get("L1"),
            "L2": stats.cache_hits.get("L2"),
            "L3": stats.cache_hits.get("L3"),
            "LLC_miss": stats.cache_misses.get("LLC"),
            "epochs": stats.epochs_completed,
            "forced": stats.epochs_forced_by_overflow,
            "promoted": stats.pages_promoted,
            "demoted": stats.pages_demoted,
            "ckpt_busy": stats.checkpoint_busy_cycles,
            "stall_checkpoint": stats.stall_cycles.get("checkpoint"),
            "stall_flush": stats.stall_cycles.get("flush"),
            "stall_backpressure": stats.stall_cycles.get("backpressure"),
            "nvm_bytes": stats.nvm_write_bytes,
        })

    def metrics(self, verdicts: List[Dict[str, object]]
                ) -> Dict[str, float]:
        """The counters, plus crash-check's plan ``verdicts``."""
        t = self.total
        l1_access = t["L1"] + t["L2"] + t["L3"] + t["LLC_miss"]
        l2_access = l1_access - t["L1"]
        l3_access = l2_access - t["L2"]
        cycles = t["cycles"]
        stalls = (t["stall_checkpoint"] + t["stall_flush"]
                  + t["stall_backpressure"])
        return {
            "sim.engine.events": t["events"],
            "mem.controller.requests_issued": t["requests"],
            "mem.controller.blocks_serviced": (t["nvm_access"]
                                               + t["dram_access"]),
            "mem.controller.read_lat_mean_cyc": (
                t["read_lat"] / t["read_n"] if t["read_n"] else 0.0),
            "mem.controller.write_lat_mean_cyc": (
                t["write_lat"] / t["write_n"] if t["write_n"] else 0.0),
            "mem.device.nvm_row_hit_pct": _pct(t["nvm_hits"],
                                               t["nvm_access"]),
            "mem.device.dram_row_hit_pct": _pct(t["dram_hits"],
                                                t["dram_access"]),
            "mem.device.nvm_busy_pct": _pct(t["nvm_busy"],
                                            t["nvm_bank_cycles"]),
            "mem.device.nvm_write_mb": t["nvm_bytes"] / (1 << 20),
            "cache.l1_hit_pct": _pct(t["L1"], l1_access),
            "cache.l2_hit_pct": _pct(t["L2"], l2_access),
            "cache.l3_hit_pct": _pct(t["L3"], l3_access),
            "core.epochs": t["epochs"],
            "core.epochs_forced": t["forced"],
            "core.pages_promoted": t["promoted"],
            "core.pages_demoted": t["demoted"],
            "core.ckpt_busy_pct": _pct(t["ckpt_busy"], cycles),
            "cpu.stall_checkpoint_cyc": t["stall_checkpoint"],
            "cpu.stall_flush_cyc": t["stall_flush"],
            "cpu.stall_backpressure_cyc": t["stall_backpressure"],
            "cpu.ckpt_stall_pct": _pct(stalls, cycles),
            "fuzz.plans": len(verdicts),
            "fuzz.unreached": sum(v["outcome"] == "unreached"
                                  for v in verdicts),
            "fuzz.crash_cycles": sum(v.get("crash_cycle") or 0
                                     for v in verdicts),
        }
