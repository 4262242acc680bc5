"""Steadiness mode: interleaved sets of benchmark runs of one commit.

    python3 perfbench/steady.py --sets 2 --runs 6 [--seconds 20]
                                [--workloads kv-btree,crash-check]

Run ``i`` uses seed ``first-seed + i`` in every set, and the order of
the sets rotates from one run to the next (A B, B A, ...), so host
drift falls on all sets alike.  For each workload and end-to-end metric
it prints each set's median and quartiles, their spread (interquartile
range over median), the difference between the first and last set's
medians, and the metric's bound from BENCHMARK.json.  Every run also
records ``host.probe_ms`` before and after it, so a reader can tell
host drift from a code change.  With ``--sets 1`` it is the spread
check: ten runs, ten seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List

import run


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", help="also write every record here")
    args = parser.parse_args()

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",")
    names = [chr(ord("A") + index) for index in range(args.sets)]
    values: Dict[tuple, List[float]] = {}
    probes: Dict[str, List[float]] = {name: [] for name in names}
    records = []
    for index in range(args.runs):
        shift = index % args.sets
        for name in names[shift:] + names[:shift]:
            for workload in workloads:
                record = run.measure(workload, args.first_seed + index,
                                     seconds, trace=False)
                records.append(dict(record, set=name))
                probes[name] += [record["probe_before_ms"],
                                 record["probe_after_ms"]]
                for metric, value in record["metrics"].items():
                    values.setdefault((workload, metric, name),
                                      []).append(value)
                print(f"run {index + 1}/{args.runs} set {name} {workload} "
                      f"seed {args.first_seed + index}: "
                      f"correct={record['correct']} "
                      f"ops_per_s={record['metrics']['ops_per_s']:.1f} "
                      f"probe_ms={record['probe_before_ms']:.3f}"
                      f"/{record['probe_after_ms']:.3f}",
                      file=sys.stderr, flush=True)

    print(f"{'workload':12s} {'metric':12s} "
          + " ".join(f"{n + ' median [q1, q3] spread':>40s}" for n in names)
          + f" {'diff':>8s} {'bound':>6s}")
    for workload in workloads:
        for metric in run.END_TO_END_UNITS:
            cells, medians = [], []
            for name in names:
                q1, median, q3 = quartiles(values[(workload, metric, name)])
                spread = (q3 - q1) / median if median else 0.0
                medians.append(median)
                cells.append(f"{median:12.6g} [{q1:9.4g}, {q3:9.4g}] "
                             f"{100 * spread:5.1f}%")
            diff = ((medians[-1] - medians[0]) / medians[0]
                    if medians[0] else 0.0)
            print(f"{workload:12s} {metric:12s} " + " ".join(cells)
                  + f" {100 * diff:7.2f}% {100 * bounds[metric]:5.1f}%")
    print("host.probe_ms median per set: " + ", ".join(
        f"{name} {statistics.median(probes[name]):.3f}" for name in names))
    if args.json:
        with open(args.json, "w") as out:
            json.dump(records, out, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
