"""The repository benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload kv-btree --seed 1 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root (or any copy of it that holds ``src/``).
Every measured process is a fresh interpreter with a fixed hash seed,
started after one discarded warm-up that compiles the bytecode:

1. a fixed reference kernel times the host (``host.probe_ms``; see
   ``hostref.py``, which also turns host CPU times into reference
   seconds);
2. ``--trace 0``: the measured process runs the timed phase for
   ``--seconds`` of CPU time, with set-up-only processes before and
   after it; ``setup_s`` is the median over all of them.
   ``--trace 1``: one process makes an untraced and a traced pass over
   a fixed amount of work and reports the per-layer split;
3. the probe runs again.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (each ``{"value", "unit"}``);
a table with sample counts comes before it.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import hostref
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("kv-btree", "dual-scheme", "crash-check")

#: Fresh set-up-only processes per run, half before and half after the
#: timed phase so that they span the host's drift; the measured process
#: adds one more sample.
SETUP_SAMPLES = 6
#: A run must finish inside this many wall seconds.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
    "unit_ms_p50": "ms",
    "unit_ms_p99": "ms",
    "sim_cycles": "cycles",
}

PER_LAYER_UNITS: Dict[str, str] = {}
for _layer in spans.LAYERS:
    PER_LAYER_UNITS.update({f"{_layer}.calls": "count",
                            f"{_layer}.self_ms": "ms",
                            f"{_layer}.self_pct": "%"})
PER_LAYER_UNITS.update({
    "sim.queueing.pop_ready_yield": "ratio",
    "sim.queueing.enqueue_refused": "count",
    "mem.datastore.blocks": "count",
    "trace.overhead_pct": "%",
    "trace.named_pct": "%",
    "sim.engine.us_per_event": "us",
    "host.probe_ms": "ms",
    "sim.engine.events": "count",
    "mem.controller.requests_issued": "count",
    "mem.controller.blocks_serviced": "count",
    "mem.controller.read_lat_mean_cyc": "cycles",
    "mem.controller.write_lat_mean_cyc": "cycles",
    "mem.device.nvm_row_hit_pct": "%",
    "mem.device.dram_row_hit_pct": "%",
    "mem.device.nvm_busy_pct": "%",
    "mem.device.nvm_write_mb": "MB",
    "cache.l1_hit_pct": "%",
    "cache.l2_hit_pct": "%",
    "cache.l3_hit_pct": "%",
    "core.epochs": "count",
    "core.epochs_forced": "count",
    "core.pages_promoted": "count",
    "core.pages_demoted": "count",
    "core.ckpt_busy_pct": "%",
    "cpu.stall_checkpoint_cyc": "cycles",
    "cpu.stall_flush_cyc": "cycles",
    "cpu.stall_backpressure_cyc": "cycles",
    "cpu.ckpt_stall_pct": "%",
    "fuzz.plans": "count",
    "fuzz.unreached": "count",
    "fuzz.crash_cycles": "cycles",
})


class BenchError(Exception):
    """The benchmark could not produce a result."""


# --- host probe --------------------------------------------------------------

def host_probe(reps: int = 25) -> List[float]:
    """CPU milliseconds of ``reps`` passes of the fixed reference kernel."""
    return [hostref.kernel_ms() for _ in range(reps)]


# --- fresh processes ---------------------------------------------------------

def _child_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("PYTHON")}
    env.update(PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"),
               PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    return env


def _spawn(mode: str, workload: str, seed: int, seconds: float,
           scale: float, deadline: float) -> Dict[str, object]:
    command = [sys.executable, str(BENCH / "child.py"), "--mode", mode,
               "--workload", workload, "--seed", str(seed),
               "--work-dir", str(WORK), "--seconds", repr(seconds),
               "--scale", repr(scale)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before the {mode} process")
    try:
        proc = subprocess.run(command, env=_child_env(), cwd=ROOT,
                              stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process passed the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- one run -----------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0, setup_samples: int = SETUP_SAMPLES
            ) -> Dict[str, object]:
    """One benchmark run of ``workload``; returns the full record."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; "
                         f"pick one of {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)

    def spawn(mode: str) -> Dict[str, object]:
        return _spawn(mode, workload, seed, seconds, scale, deadline)

    spawn("setup")                     # warm-up: bytecode, plan list
    probe_before = host_probe()
    if trace:
        result = spawn("trace")
        metrics = dict(result["metrics"])
        samples: Dict[str, int] = {}
        raw = {}
        correct = result["failed"] == 0 and result["outputs_equal"]
    else:
        before = setup_samples // 2
        setups = [spawn("setup") for _ in range(before)]
        result = spawn("run")
        setups.append(result)
        setups += [spawn("setup") for _ in range(setup_samples - before)]
        metrics = {name: result[name] for name in END_TO_END_UNITS
                   if name in result}
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        raw = {"ops_per_s": result["ops_per_cpu_s"],
               "setup_s": statistics.median(s["setup_cpu_s"]
                                            for s in setups),
               "probe_ms": result["probe_ms"]}
        samples = {"ops_per_s": result["attempted"],
                   "setup_s": len(setups), "peak_rss_mb": 1,
                   "pass_frac": result["attempted"],
                   "unit_ms_p50": result["latency_samples"],
                   "unit_ms_p99": result["latency_samples"],
                   "sim_cycles": 1}
        correct = result["failed"] == 0
    probe_after = host_probe()
    if trace:
        metrics["host.probe_ms"] = statistics.median(probe_before
                                                     + probe_after)
    return {"workload": workload, "seed": seed, "trace": trace,
            "correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics,
            "samples": samples,
            "probe_before_ms": statistics.median(probe_before),
            "probe_after_ms": statistics.median(probe_after),
            "raw": raw, "errors": result.get("errors", []),
            "trace_file": result.get("trace_file")}


def contract_line(record: Dict[str, object]) -> Dict[str, object]:
    """The result object the last stdout line carries."""
    units = PER_LAYER_UNITS if record["trace"] else END_TO_END_UNITS
    metrics = record["metrics"]
    return {"correct": bool(record["correct"]),
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def table(record: Dict[str, object]) -> str:
    units = PER_LAYER_UNITS if record["trace"] else END_TO_END_UNITS
    samples = record["samples"]
    lines = [f"# {record['workload']} seed={record['seed']} "
             f"trace={int(record['trace'])} correct={record['correct']} "
             f"attempted={record['attempted']} failed={record['failed']} "
             f"probe_ms={record['probe_before_ms']:.3f}"
             f"/{record['probe_after_ms']:.3f}"]
    for name, unit in units.items():
        count = samples.get(name)
        lines.append(f"{name:40s} {record['metrics'][name]:>16.6g} "
                     f"{unit:7s}" + (f" n={count}" if count else ""))
    if record["raw"]:
        lines.append("# raw host CPU: " + ", ".join(
            f"{name}={value:.6g}" for name, value in record["raw"].items()))
    for error in record["errors"]:
        lines.append(f"! {error}")
    if record.get("trace_file"):
        lines.append(f"# spans by edge: {record['trace_file']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every unit of work (smoke tests)")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [measure(name, args.seed, args.seconds, bool(args.trace),
                           args.scale) for name in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print(table(record))
    if args.workload == "all":
        print(json.dumps({record["workload"]: contract_line(record)
                          for record in records}))
    else:
        print(json.dumps(contract_line(records[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
