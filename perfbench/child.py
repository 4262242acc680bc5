"""One measured process of the benchmark; ``run.py`` starts it fresh.

    python child.py --mode setup|run|trace --workload NAME --seed N
                    --work-dir DIR [--seconds S] [--scale F]

``setup`` stops at the first timed unit, ``run`` goes on to the timed
phase, and ``trace`` makes one untraced and one traced pass.  Prints
one JSON object on stdout.  ``setup_cpu_s`` is this process's CPU time
from interpreter start to the first timed unit, ``setup_s`` the same in
reference seconds (see ``hostref.py``), and ``peak_rss_mb`` its own
peak resident set.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", required=True,
                        choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    import hostref
    import suite
    prepared = suite.set_up(args.workload, args.seed, args.scale,
                            args.work_dir / "plans")
    setup_cpu_s = time.process_time()
    setup = {"setup_cpu_s": setup_cpu_s,
             "setup_s": setup_cpu_s * hostref.NOMINAL_MS
             / hostref.kernel_ms(reps=5)}
    if args.mode == "setup":
        out = setup
    elif args.mode == "run":
        out = suite.timed_run(args.workload, prepared, args.seconds)
        out.update(setup, peak_rss_mb=peak_rss_mb())
    else:
        out = suite.traced_run(args.workload, prepared)
        path = args.work_dir / "trace" / f"{args.workload}-s{args.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": args.workload,
                                    "seed": args.seed,
                                    "edges": out.pop("edges")}, indent=1))
        out["trace_file"] = str(path)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
