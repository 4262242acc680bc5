"""Command-line interface: run workloads and regenerate paper figures.

    repro run --system thynvm --workload random --ops 8000
    repro run --system journal --workload kv-hash --request-size 256
    repro bench fig7 fig12 --jobs 4 --json
    repro perf --quick
    repro trace record --workload sliding --ops 2000 -o sliding.trace
    repro trace run --system thynvm sliding.trace
    repro lint src/ --strict
    repro fuzz --quick --jobs 4
    repro fuzz replay 'thynvm/sparse:s1:e2:b16@fence#1+0'
    repro crashproc 'thynvm/sparse:s1:e3:b16@commit-write#1+0'
    repro crashproc --sweep --quick

Installed as the ``repro`` console script; also usable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Iterator, List, Optional

from .config import SystemConfig
from .errors import FuzzFailure, ReproError, exit_code_for
from .cpu.trace import Op
from .harness import experiments
from .harness.runner import run_workload
from .harness.systems import SYSTEM_NAMES
from .harness.tables import format_table
from .units import us_to_cycles
from .workloads.kvstore.workload import KVWorkload, kv_trace
from .workloads.micro import random_trace, sliding_trace, streaming_trace
from .workloads.spec import SPEC_MODELS, spec_trace
from .workloads.tracefile import load_trace, save_trace

MICRO_FACTORIES = {
    "random": random_trace,
    "streaming": streaming_trace,
    "sliding": sliding_trace,
}

FIGURES = ("fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "table1")


def build_config(args: argparse.Namespace) -> SystemConfig:
    """SystemConfig from the CLI's config-override flags."""
    overrides = {}
    if getattr(args, "epoch_us", None):
        overrides["epoch_cycles"] = us_to_cycles(args.epoch_us)
    if getattr(args, "btt_entries", None):
        overrides["btt_entries"] = args.btt_entries
    if getattr(args, "store_dir", None):
        overrides["store_dir"] = args.store_dir
    if getattr(args, "msync", None):
        overrides["msync_policy"] = args.msync
    return SystemConfig(**overrides)


def build_trace(args: argparse.Namespace) -> Iterator[Op]:
    """Instantiate the workload named by ``--workload``."""
    name = args.workload
    if name in MICRO_FACTORIES:
        return MICRO_FACTORIES[name](args.footprint, args.ops,
                                     seed=args.seed)
    if name in ("kv-hash", "kv-rbtree"):
        structure = "hashtable" if name == "kv-hash" else "rbtree"
        workload = KVWorkload(structure=structure,
                              request_size=args.request_size,
                              num_ops=args.ops,
                              preload=max(200, args.ops // 3),
                              persist_every=args.persist_every,
                              seed=args.seed)
        return kv_trace(workload)
    if name.startswith("spec:"):
        bench = name.split(":", 1)[1]
        if bench not in SPEC_MODELS:
            raise SystemExit(f"unknown SPEC model {bench!r}; "
                             f"choose from {sorted(SPEC_MODELS)}")
        return spec_trace(SPEC_MODELS[bench], args.ops, seed=args.seed)
    if name.startswith("ycsb:"):
        from .workloads.ycsb import ycsb_trace
        return ycsb_trace(name.split(":", 1)[1],
                          request_size=args.request_size,
                          num_ops=args.ops,
                          persist_every=args.persist_every,
                          seed=args.seed)
    raise SystemExit(
        f"unknown workload {name!r}; choose from "
        f"{sorted(MICRO_FACTORIES)} + ['kv-hash', 'kv-rbtree', "
        f"'spec:<name>', 'ycsb:<mix>']")


def cmd_run(args: argparse.Namespace) -> int:
    """`repro run`: one workload on one system, stats to stdout."""
    config = build_config(args)
    result = run_workload(args.system, build_trace(args), config)
    summary = result.stats.summary()
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        rows = [[key, value] for key, value in summary.items()]
        print(format_table(["metric", "value"], rows,
                           title=f"{args.system} / {args.workload}"))
    return 0


def _run_figures(wanted, ops, jobs=1, progress=None, emit=print):
    """Run the requested figures; return the figure-keyed report dict.

    ``emit`` receives the human-readable tables; pass a no-op to build
    the report silently (``repro bench --json``).  The report contains
    only deterministic simulation results (series + per-point summary
    dicts) so ``--jobs N`` output is byte-identical to serial output.
    """
    report = {}

    def point_summaries(results):
        return {str(key): {system: stats.summary()
                           for system, stats in by_system.items()}
                for key, by_system in results.items()}

    if {"fig7", "fig8"} & set(wanted):
        micro = experiments.run_micro(num_ops=ops or 12000, jobs=jobs,
                                      progress=progress)
        if "fig7" in wanted:
            series = experiments.fig7_exec_time(micro)
            report["fig7"] = {"series": series,
                              "points": point_summaries(micro)}
            _print_series("Figure 7 (relative exec time)", series, emit)
        if "fig8" in wanted:
            traffic = experiments.fig8_write_traffic(micro)
            report["fig8"] = {"series": traffic,
                              "points": point_summaries(micro)}
            for workload, systems in traffic.items():
                rows = [[s] + [round(v, 2) for v in cells.values()]
                        for s, cells in systems.items()]
                emit(format_table(
                    ["system", "cpu MB", "ckpt MB", "migr MB", "other MB",
                     "total MB", "ckpt %"], rows,
                    title=f"Figure 8: {workload}"))
                emit()
    if {"fig9", "fig10"} & set(wanted):
        for structure in ("hashtable", "rbtree"):
            kv = experiments.run_kvstore(structure, num_ops=ops or 1200,
                                         jobs=jobs, progress=progress)
            if "fig9" in wanted:
                series = experiments.fig9_throughput(kv)
                report.setdefault("fig9", {})[structure] = {
                    "series": series, "points": point_summaries(kv)}
                _print_series(f"Figure 9 ({structure}, KTPS)", series, emit)
            if "fig10" in wanted:
                series = experiments.fig10_bandwidth(kv)
                report.setdefault("fig10", {})[structure] = {
                    "series": series, "points": point_summaries(kv)}
                _print_series(f"Figure 10 ({structure}, MB/s)", series, emit)
    if "fig11" in wanted:
        spec = experiments.run_spec(num_mem_ops=ops or 10000, jobs=jobs,
                                    progress=progress)
        series = experiments.fig11_normalized_ipc(spec)
        report["fig11"] = {"series": series,
                           "points": point_summaries(spec)}
        _print_series("Figure 11 (IPC norm. to Ideal DRAM)", series, emit)
    if "fig12" in wanted:
        series = experiments.fig12_btt_sensitivity(num_ops=ops or 1500,
                                                   jobs=jobs,
                                                   progress=progress)
        report["fig12"] = {"series": series}
        rows = [[size] + [round(v, 2) for v in cells.values()]
                for size, cells in sorted(series.items())]
        emit(format_table(
            ["BTT entries", "KTPS", "NVM MB", "overflow epochs"], rows,
            title="Figure 12"))
        emit()
    if "table1" in wanted:
        results = experiments.table1_tradeoff(num_ops=ops or 8000, jobs=jobs,
                                              progress=progress)
        report["table1"] = {"series": results}
        rows = [[system] + [cells[k] for k in
                            ("cycles", "overhead_cycles",
                             "ckpt_stall_cycles", "metadata_peak_bytes")]
                for system, cells in results.items()]
        emit(format_table(
            ["system", "cycles", "overhead", "stall", "metadata B"],
            rows, title="Table 1"))
        emit()
    return report


def _check_figures(figures) -> list:
    wanted = figures or list(FIGURES)
    unknown = [f for f in wanted if f not in FIGURES]
    if unknown:
        raise SystemExit(f"unknown figure(s) {unknown}; pick from {FIGURES}")
    return wanted


def cmd_bench(args: argparse.Namespace) -> int:
    """`repro bench`: regenerate paper figures via the parallel harness.

    Deterministic results go to stdout (tables, or ``--json``);
    progress and timing observability go to stderr, so two runs with
    different ``--jobs`` values can be diffed on stdout alone.
    """
    import time as _time

    wanted = _check_figures(args.figures)
    if args.ops is not None and args.ops < 1:
        print(f"bench: --ops must be at least 1 (got {args.ops})",
              file=sys.stderr)
        return 2
    points = 0

    def progress(event) -> None:
        nonlocal points
        points += 1
        print(f"[{event.index + 1:3d}/{event.total:3d}] "
              f"{event.point.describe():44s} {event.wall_seconds:6.2f}s",
              file=sys.stderr)

    emit = (lambda *parts: None) if args.json else print
    started = _time.perf_counter()
    report = _run_figures(wanted, args.ops, jobs=args.jobs,
                          progress=progress, emit=emit)
    elapsed = _time.perf_counter() - started
    print(f"bench: {points} points, {elapsed:.2f}s wall (jobs={args.jobs})",
          file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    """`repro perf`: simulator-throughput microbenchmarks.

    Runs the fixed workload matrix, appends an entry to the perf
    trajectory (BENCH_PERF.json) and optionally warns when events/sec
    fell more than ``--threshold`` below the recorded baseline
    (docs/PERFORMANCE.md).
    """
    from .perf import main as perf_main
    return perf_main(args)


def _print_series(title: str, series, emit=print) -> None:
    keys = sorted(series)
    systems = list(series[keys[0]].keys())
    rows = [[key] + [round(series[key][s], 3) for s in systems]
            for key in keys]
    emit(format_table(["x"] + systems, rows, title=title))
    emit()


def cmd_trace(args: argparse.Namespace) -> int:
    """`repro trace record|run`: capture or replay a trace file."""
    if args.trace_command == "record":
        count = save_trace(build_trace(args), args.output,
                           header=f"workload={args.workload} ops={args.ops}")
        print(f"wrote {count} ops to {args.output}")
        return 0
    if args.trace_command == "run":
        config = build_config(args)
        result = run_workload(args.system, load_trace(args.trace_file),
                              config)
        print(json.dumps(result.stats.summary(), indent=2))
        return 0
    raise SystemExit("trace: choose 'record' or 'run'")


def cmd_lint(args: argparse.Namespace) -> int:
    """`repro lint`: run the protocol-aware static analyzer."""
    from .analysis import (render_rule_catalogue, render_rule_explain,
                           run_analysis)
    from .analysis.report import lint_tool_report, render
    if args.list_rules:
        print(render_rule_catalogue())
        return 0
    if args.explain:
        try:
            print(render_rule_explain(args.explain))
        except KeyError:
            print(f"lint: unknown rule id {args.explain!r}; see "
                  f"`repro lint --list-rules`", file=sys.stderr)
            return 2
        return 0
    paths = args.paths or ["src"]
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        # A typo'd path must not green-light a CI run.
        print(f"lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    report = run_analysis(paths)
    if not report.files_scanned:
        # Nor may a path that holds nothing to analyze.
        print(f"lint: no Python files under: {', '.join(paths)}",
              file=sys.stderr)
        return 2
    print(render(lint_tool_report(report), args.format))
    return report.exit_code(strict=args.strict)


def cmd_verify(args: argparse.Namespace) -> int:
    """`repro verify`: static crash-consistency model checking."""
    from .analysis.report import render
    from .analysis.verify import VERIFY_SYSTEMS, VerifyConfig, run_verify
    from .analysis.verify.checks import (all_checks, render_check_explain)
    from .analysis.verify.runner import verify_tool_report
    if args.list_checks:
        for check in all_checks():
            print(f"{check.id:26s} [{check.family}/"
                  f"{check.severity.value}] {check.description}")
        return 0
    if args.explain:
        try:
            print(render_check_explain(args.explain))
        except KeyError:
            print(f"verify: unknown check id {args.explain!r}; see "
                  f"`repro verify --list-checks`", file=sys.stderr)
            return 2
        return 0
    systems = (tuple(dict.fromkeys(args.system)) if args.system
               else VERIFY_SYSTEMS)
    unknown = [s for s in systems if s not in VERIFY_SYSTEMS]
    if unknown:
        print(f"verify: unknown system(s): {', '.join(unknown)} "
              f"(have: {', '.join(VERIFY_SYSTEMS)})", file=sys.stderr)
        return 2
    if args.epochs < 1:
        print(f"verify: --epochs must be at least 1 (got {args.epochs})",
              file=sys.stderr)
        return 2
    config = VerifyConfig(systems=systems, epochs=args.epochs)
    report = run_verify(config)
    print(render(verify_tool_report(report), args.format))
    return report.exit_code(strict=args.strict)


def cmd_fuzz(args: argparse.Namespace) -> int:
    """`repro fuzz`: crash-schedule fuzzing (docs/FUZZING.md).

    ``repro fuzz`` (no subcommand) runs a campaign: replay the corpus,
    census the probe sites, crash everywhere, minimize and archive new
    failures.  ``repro fuzz replay <plan>`` reproduces one plan
    standalone.  ``repro fuzz sites`` prints the crash-site taxonomy.

    Deterministic JSON goes to stdout; progress/ETA to stderr.  A
    corpus regression always fails (exit 20).  A brand-new failure
    fails too, unless ``--check`` demotes it to a GitHub warning
    annotation so an exploratory CI job cannot turn flaky-red.
    """
    import time as _time

    from .fuzz import parse_plan, run_plan
    from .fuzz.campaign import (CampaignOptions, campaign_failed,
                                run_campaign)

    if args.fuzz_command == "replay":
        result = run_plan(parse_plan(args.plan))
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        if result.failed:
            raise FuzzFailure(f"plan {args.plan} failed: {result.detail}")
        return 0

    if args.fuzz_command == "sites":
        from .fuzz.sites import coverage_gaps, taxonomy
        print(json.dumps({"taxonomy": taxonomy(),
                          "coverage_gaps": coverage_gaps()},
                         indent=2, sort_keys=True))
        return 0

    options = CampaignOptions(
        quick=args.quick, jobs=args.jobs, corpus_dir=args.corpus_dir,
        minimize_failures=not args.no_minimize)
    if args.systems:
        options.systems = tuple(args.systems.split(","))
    if args.workloads:
        options.workloads = tuple(args.workloads.split(","))

    started = _time.perf_counter()

    def progress(stage: str, done: int, total: int, label: str) -> None:
        elapsed = _time.perf_counter() - started
        eta = elapsed / done * (total - done) if done else 0.0
        print(f"[{stage} {done:4d}/{total:4d}] {label:56s} "
              f"eta {eta:5.1f}s", file=sys.stderr)

    report = run_campaign(options, progress=progress)
    elapsed = _time.perf_counter() - started
    print(f"fuzz: {report['plans']} plans, outcomes {report['outcomes']}, "
          f"{len(report['corpus']['regressions'])} corpus regressions, "
          f"{elapsed:.1f}s wall (jobs={args.jobs})", file=sys.stderr)
    print(json.dumps(report, indent=2, sort_keys=True))

    regressed, fresh = campaign_failed(report)
    if regressed:
        raise FuzzFailure(
            f"{len(report['corpus']['regressions'])} corpus "
            f"reproducer(s) failing again — a fixed crash-consistency "
            f"bug is back")
    if fresh:
        count = len(report["failures"])
        if args.check:
            # Exploratory CI: surface loudly, but do not fail the job.
            print(f"::warning title=repro fuzz::{count} new "
                  f"crash-consistency failure(s); minimized reproducers "
                  f"archived under {options.corpus_dir}/")
            return 0
        raise FuzzFailure(f"{count} new crash-consistency failure(s); "
                          f"see the JSON report and {options.corpus_dir}/")
    return 0


def cmd_crashproc(args: argparse.Namespace) -> int:
    """`repro crashproc`: cross-process kill -9 crash-recovery testing.

    A child process drives the plan's workload against file-backed
    (mmap) stores and is SIGKILLed at the plan's crash site; a fresh
    process then attaches the surviving NVM image file, recovers, and
    the committed-prefix oracle checks the image (docs/PERSISTENCE.md).
    ``--sweep`` runs every system at a fixed site set (``--quick`` for
    the CI smoke subset).  The hidden ``--child``/``--recover`` flags
    select the subprocess roles and are not meant for direct use.
    """
    from .fuzz import parse_plan
    from .fuzz.crashproc import (run_child, run_crashproc, run_recover,
                                 run_sweep)

    if args.child or args.recover:
        if not args.plan or not args.store_dir:
            raise SystemExit("crashproc --child/--recover need a plan "
                             "and --store-dir")
        plan = parse_plan(args.plan)
        if args.child:
            return run_child(plan, args.store_dir)
        print(json.dumps(run_recover(plan, args.store_dir), sort_keys=True))
        return 0

    if args.sweep:
        results = run_sweep(quick=args.quick, store_root=args.store_dir,
                            keep=args.keep, timeout=args.timeout)
        print(json.dumps([r.to_dict() for r in results],
                         indent=2, sort_keys=True))
        bad = [r for r in results if r.outcome != "pass"]
        if bad:
            raise FuzzFailure(
                f"{len(bad)} of {len(results)} kill -9 cycles failed: "
                + "; ".join(f"{r.plan} [{r.outcome}]" for r in bad))
        return 0

    if not args.plan:
        raise SystemExit("crashproc: give a crash plan string or --sweep")
    result = run_crashproc(parse_plan(args.plan), store_dir=args.store_dir,
                           keep=args.keep, timeout=args.timeout)
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    if result.failed:
        raise FuzzFailure(f"plan {args.plan} failed: {result.detail}")
    return 0


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="random",
                        help="random | streaming | sliding | kv-hash | "
                             "kv-rbtree | spec:<name>")
    parser.add_argument("--ops", type=int, default=8000)
    parser.add_argument("--footprint", type=int, default=2 * 1024 * 1024)
    parser.add_argument("--request-size", type=int, default=64)
    parser.add_argument("--persist-every", type=int, default=None,
                        help="durability barrier every N transactions (§6)")
    parser.add_argument("--seed", type=int, default=1)


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    # Exact flag names only: argparse would otherwise accept "--store"
    # as an abbreviation of "--store-dir".
    parser.allow_abbrev = False
    parser.add_argument("--epoch-us", type=float, default=None,
                        help="epoch length in microseconds")
    parser.add_argument("--btt-entries", type=int, default=None)
    parser.add_argument("--store-dir", default=None,
                        help="keep device contents in file-backed mmap "
                             "images in this directory "
                             "(docs/PERSISTENCE.md)")
    parser.add_argument("--msync", default=None,
                        choices=("none", "commit", "always"),
                        help="mmap flush policy (default commit: msync at "
                             "each checkpoint commit)")


def make_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ThyNVM reproduction: run simulations and figures")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one workload on one system")
    run_parser.add_argument("--system", default="thynvm",
                            choices=SYSTEM_NAMES)
    run_parser.add_argument("--json", action="store_true")
    _add_workload_args(run_parser)
    _add_config_args(run_parser)
    run_parser.set_defaults(func=cmd_run)

    bench_parser = sub.add_parser(
        "bench", help="regenerate paper figures via the parallel harness "
                      "(docs/HARNESS.md; see benchmarks/ too)")
    bench_parser.add_argument("figures", nargs="*",
                              help=f"subset of {FIGURES}; default all")
    bench_parser.add_argument("--ops", type=int, default=None)
    bench_parser.add_argument("--jobs", type=int, default=1,
                              help="worker processes (1 = serial fallback, "
                                   "0 = one per CPU)")
    bench_parser.add_argument("--json", action="store_true",
                              help="machine-readable report on stdout")
    bench_parser.set_defaults(func=cmd_bench)

    perf_parser = sub.add_parser(
        "perf", help="simulator-throughput microbenchmarks "
                     "(docs/PERFORMANCE.md)")
    perf_parser.add_argument("--quick", action="store_true",
                             help="short traces (CI smoke; ops=3000)")
    perf_parser.add_argument("--ops", type=int, default=None,
                             help="trace length per cell (default 12000, "
                                  "or 3000 with --quick)")
    perf_parser.add_argument("--label", default=None,
                             help="trajectory entry label "
                                  "(default: the mode name)")
    perf_parser.add_argument("--store", default="auto",
                             choices=("auto", "mmap"),
                             help="functional-store backend axis; mmap "
                                  "prices the file-backed store "
                                  "(docs/PERSISTENCE.md)")
    perf_parser.add_argument("--json", action="store_true",
                             help="print the new entry as JSON on stdout")
    perf_parser.add_argument("--output", default="BENCH_PERF.json",
                             help="perf trajectory file "
                                  "(default BENCH_PERF.json)")
    perf_parser.add_argument("--no-write", action="store_true",
                             help="measure and report without updating "
                                  "the trajectory file")
    perf_parser.add_argument("--check", action="store_true",
                             help="emit a GitHub warning annotation when "
                                  "events/sec drops below the baseline "
                                  "by more than --threshold")
    perf_parser.add_argument("--threshold", type=float, default=0.25,
                             help="allowed fractional drop for --check "
                                  "(default 0.25)")
    perf_parser.set_defaults(func=cmd_perf)

    trace_parser = sub.add_parser("trace", help="record/replay trace files")
    trace_sub = trace_parser.add_subparsers(dest="trace_command",
                                            required=True)
    record = trace_sub.add_parser("record")
    _add_workload_args(record)
    record.add_argument("-o", "--output", required=True)
    record.set_defaults(func=cmd_trace)
    replay = trace_sub.add_parser("run")
    replay.add_argument("trace_file")
    replay.add_argument("--system", default="thynvm", choices=SYSTEM_NAMES)
    _add_config_args(replay)
    replay.set_defaults(func=cmd_trace)

    lint_parser = sub.add_parser(
        "lint", help="protocol-aware static analysis (docs/ANALYSIS.md)")
    lint_parser.add_argument("paths", nargs="*",
                             help="files/directories to analyze (default src)")
    lint_parser.add_argument("--format", default="text",
                             choices=("text", "json", "github"),
                             help="output format; 'github' emits Actions "
                                  "::error annotations")
    lint_parser.add_argument("--strict", action="store_true",
                             help="warnings also fail the run")
    lint_parser.add_argument("--list-rules", action="store_true",
                             help="print the rule catalogue and exit")
    lint_parser.add_argument("--explain", metavar="RULE_ID", default=None,
                             help="print one rule's doc, rationale and "
                                  "examples, then exit")
    lint_parser.set_defaults(func=cmd_lint)

    verify_parser = sub.add_parser(
        "verify", help="static crash-consistency model checking "
                       "(docs/VERIFY.md)")
    verify_parser.add_argument("--system", action="append", default=None,
                               metavar="SYSTEM",
                               help="verify only this system (repeatable; "
                                    "default: all five)")
    verify_parser.add_argument("--epochs", type=int, default=3,
                               help="epoch boundaries each abstract "
                                    "machine drives (default 3)")
    verify_parser.add_argument("--format", default="text",
                               choices=("text", "json", "github"),
                               help="output format (shared with "
                                    "repro lint)")
    verify_parser.add_argument("--strict", action="store_true",
                               help="extraction warnings also fail the run")
    verify_parser.add_argument("--list-checks", action="store_true",
                               help="print the verify check catalogue "
                                    "and exit")
    verify_parser.add_argument("--explain", metavar="CHECK_ID",
                               default=None,
                               help="print one check's doc, rationale and "
                                    "examples, then exit (lint rule ids "
                                    "also accepted)")
    verify_parser.set_defaults(func=cmd_verify)

    fuzz_parser = sub.add_parser(
        "fuzz", help="crash-schedule fuzzing campaign (docs/FUZZING.md)")
    fuzz_parser.add_argument("--quick", action="store_true",
                             help="small census shape and plan budget "
                                  "(CI smoke)")
    fuzz_parser.add_argument("--check", action="store_true",
                             help="CI mode: new failures warn (exit 0), "
                                  "corpus regressions still fail")
    fuzz_parser.add_argument("--jobs", type=int, default=1,
                             help="worker processes (1 = serial fallback, "
                                  "0 = one per CPU)")
    fuzz_parser.add_argument("--systems", default=None,
                             help="comma-separated subset of the fuzzed "
                                  "systems (default: all five)")
    fuzz_parser.add_argument("--workloads", default=None,
                             help="comma-separated subset of the fuzz "
                                  "workloads (default: all)")
    fuzz_parser.add_argument("--corpus-dir", default="fuzz-corpus",
                             help="minimized-reproducer archive "
                                  "(default fuzz-corpus)")
    fuzz_parser.add_argument("--no-minimize", action="store_true",
                             help="report failures without shrinking or "
                                  "archiving them")
    fuzz_sub = fuzz_parser.add_subparsers(dest="fuzz_command")
    fuzz_replay = fuzz_sub.add_parser(
        "replay", help="re-run one archived/reported crash plan")
    fuzz_replay.add_argument("plan", help="plan string, e.g. "
                             "'thynvm/sparse:s1:e2:b16@fence#1+0'")
    fuzz_sub.add_parser(
        "sites", help="print the crash-site taxonomy and coverage gaps")
    fuzz_parser.set_defaults(func=cmd_fuzz, fuzz_command=None)

    crashproc_parser = sub.add_parser(
        "crashproc", help="cross-process kill -9 crash-recovery testing "
                          "(docs/PERSISTENCE.md)")
    crashproc_parser.add_argument(
        "plan", nargs="?", default=None,
        help="crash plan string, e.g. "
             "'thynvm/sparse:s1:e3:b16@commit-write#1+0'")
    crashproc_parser.add_argument("--sweep", action="store_true",
                                  help="run every system at the fixed "
                                       "sweep sites")
    crashproc_parser.add_argument("--quick", action="store_true",
                                  help="with --sweep: one mid-checkpoint "
                                       "site per system (CI smoke)")
    crashproc_parser.add_argument("--store-dir", default=None,
                                  help="image directory (default: fresh "
                                       "tempdir, removed unless the run "
                                       "fails or --keep is given)")
    crashproc_parser.add_argument("--keep", action="store_true",
                                  help="keep the image directory even on "
                                       "success")
    crashproc_parser.add_argument("--timeout", type=float, default=180.0,
                                  help="per-subprocess watchdog seconds "
                                       "(default 180)")
    crashproc_parser.add_argument("--child", action="store_true",
                                  help=argparse.SUPPRESS)
    crashproc_parser.add_argument("--recover", action="store_true",
                                  help=argparse.SUPPRESS)
    crashproc_parser.set_defaults(func=cmd_crashproc)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Console-script entry point.

    Domain errors (:mod:`repro.errors`) become a one-line message on
    stderr and a distinct nonzero exit code per error family — no
    traceback; scripts and CI branch on the code, humans read the line.
    """
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; the
        # conventional silent exit (stderr may already be gone too).
        devnull = open(os.devnull, "w")
        os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 0
    except ReproError as error:
        print(f"repro: {type(error).__name__}: {error}", file=sys.stderr)
        return exit_code_for(error)


if __name__ == "__main__":
    sys.exit(main())
