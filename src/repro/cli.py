"""Command-line interface: run workloads and regenerate paper figures.

    repro run --system thynvm --workload random --ops 8000
    repro run --system journal --workload kv-hash --request-size 256
    repro bench fig7 fig12 --jobs 4 --json
    repro perf --quick
    repro trace record --workload sliding --ops 2000 -o sliding.trace
    repro trace run --system thynvm sliding.trace
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
from typing import Iterator, List, NoReturn, Optional

from .config import SystemConfig
from .errors import ClaimFailure, FuzzFailure, ReproError, exit_code_for
from .cpu.trace import Op
from .harness.experiments import EXPERIMENTS
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


def _usage_error(message: str) -> NoReturn:
    """One line on stderr, then exit 2 like an argparse usage error."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


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
            _usage_error(f"{args.command}: unknown SPEC model {bench!r}; "
                         f"choose from {sorted(SPEC_MODELS)}")
        return spec_trace(SPEC_MODELS[bench], args.ops, seed=args.seed)
    if name.startswith("ycsb:"):
        from .workloads.ycsb import ycsb_trace
        return ycsb_trace(name.split(":", 1)[1],
                          request_size=args.request_size,
                          num_ops=args.ops,
                          persist_every=args.persist_every,
                          seed=args.seed)
    _usage_error(f"{args.command}: unknown workload {name!r}; choose from "
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


def cmd_bench(args: argparse.Namespace) -> int:
    """`repro bench`: reproduce the paper's experiments, check its claims.

    Runs every selected experiment of ``harness/experiments.py`` (all by
    default), each shared sweep once, and prints each table with the
    verdict on each of its claims.  Deterministic results go to stdout
    (tables, or ``--json``); progress and timing go to stderr, so two
    runs with different ``--jobs`` values can be diffed on stdout alone.
    A failed claim is named on stderr and exits with ClaimFailure's code.
    """
    import time as _time

    unknown = [name for name in args.experiments if name not in EXPERIMENTS]
    if unknown:
        print(f"bench: unknown experiment(s): {', '.join(unknown)} "
              f"(have: {', '.join(EXPERIMENTS)})", file=sys.stderr)
        return 2
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
    report, swept, failed = {}, {}, []
    for experiment in EXPERIMENTS.values():
        if args.experiments and experiment.name not in args.experiments:
            continue
        ops = args.ops or experiment.ops
        key = (experiment.sweep, ops)
        if key not in swept:
            swept[key] = experiment.sweep(ops, args.jobs, progress)
        entry = experiment.report(swept[key])
        verdicts = {claim.id: bool(claim.holds(entry))
                    for claim in experiment.claims}
        emit(experiment.render(entry))
        for claim in experiment.claims:
            emit(f"  {'ok  ' if verdicts[claim.id] else 'FAIL'}  "
                 f"{claim.id}: {claim.text}")
        emit()
        entry["claims"] = verdicts
        report[experiment.name] = entry
        failed += [claim for claim in experiment.claims
                   if not verdicts[claim.id]]
    elapsed = _time.perf_counter() - started
    print(f"bench: {points} points, {elapsed:.2f}s wall (jobs={args.jobs})",
          file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    if failed:
        raise ClaimFailure(
            f"{len(failed)} claim(s) failed: "
            + "; ".join(f"{claim.id} ({claim.text})" for claim in failed))
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


def cmd_fuzz(args: argparse.Namespace) -> int:
    """`repro fuzz`: crash-schedule fuzzing (docs/FUZZING.md).

    ``repro fuzz`` (no subcommand) runs a campaign: replay the corpus,
    census the probe sites, crash everywhere, minimize and archive new
    failures.  ``repro fuzz replay <plan>`` reproduces one plan
    standalone.  ``repro fuzz sites`` prints the crash-site taxonomy:
    each probe kind and the protocol event that fires it.

    Deterministic JSON goes to stdout; progress/ETA to stderr.  A
    corpus regression or a brand-new failure fails the run (exit 20):
    each plan's verdict is a pure function of its plan string, so a
    failing plan is a finding, never noise.
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
        from .core.probes import SITE_KINDS
        print(json.dumps(SITE_KINDS, indent=2, sort_keys=True))
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
            _usage_error("crashproc: --child/--recover need a plan and "
                         "--store-dir")
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
        _usage_error("crashproc: give a crash plan string or --sweep")
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
        "bench", help="reproduce the paper's experiments and check their "
                      "claims (EXPERIMENTS.md, docs/HARNESS.md)")
    # Checked in cmd_bench, not by argparse `choices`: before Python
    # 3.12 argparse tests an empty `nargs="*"` list against the choices
    # and rejects it.
    bench_parser.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                              help=f"subset of {', '.join(EXPERIMENTS)}; "
                                   f"default all")
    bench_parser.add_argument("--ops", type=int, default=None,
                              help="trace length for every selected "
                                   "experiment (default: each its own)")
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
    perf_parser.add_argument("--repeat", type=int, default=1,
                             help="run the matrix N times, each cell on a "
                                  "fresh machine, and record the median, "
                                  "min and max wall time (default 1)")
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
                                  "events/sec drops more than --threshold "
                                  "below the baseline's slowest repeat")
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

    fuzz_parser = sub.add_parser(
        "fuzz", help="crash-schedule fuzzing campaign (docs/FUZZING.md)")
    fuzz_parser.add_argument("--quick", action="store_true",
                             help="small census shape and plan budget "
                                  "(CI smoke)")
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
        "sites", help="print the crash-site taxonomy: each probe kind "
                      "and what fires it")
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
