"""Campaign orchestration: enumerate, fan out, minimize, archive.

A campaign is four deterministic stages:

1. **Corpus replay** — every archived reproducer in ``fuzz-corpus/``
   runs first; one failing again is a regression (hard failure).
2. **Census** — one unarmed run per system×workload counts how often
   each probe site fires: the concrete plan space.
3. **Enumeration + execution** — plans are generated per site kind ×
   occurrence spread × jitter and fanned out over worker processes
   (:func:`repro.harness.parallel.fan_out`); every run simulates every
   plan.
4. **Minimization + archive** — failures shrink to minimal reproducers
   and land in the corpus with their replay command.

The report on stdout is byte-deterministic for a given code version:
no wall-clock, results in generation order.  Progress (with ETA)
belongs on stderr and is the CLI's job via the ``progress`` callback.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, cast

from ..harness.parallel import fan_out
from .corpus import DEFAULT_CORPUS_DIR, archive, code_version, load_corpus
from .minimize import minimize
from .plan import FUZZ_SYSTEMS, CrashPlan, parse_plan
from .runner import run_plan
from .workloads import WORKLOAD_NAMES


@dataclass(frozen=True)
class CampaignMode:
    """Census shape and plan-space bounds for one campaign mode."""

    epochs: int
    blocks: int
    seed: int
    occurrence_budget: int
    jitters: Tuple[int, ...]


_MODES = {
    "quick": CampaignMode(epochs=2, blocks=16, seed=1,
                          occurrence_budget=2, jitters=(0,)),
    "full": CampaignMode(epochs=3, blocks=24, seed=1,
                         occurrence_budget=3, jitters=(0, 60, 400, 2500)),
}

#: A census plan arms an occurrence that can never fire.
_CENSUS_OCCURRENCE = 10 ** 9

ProgressFn = Callable[[str, int, int, str], None]
# stage, index (1-based), total, label


@dataclass
class CampaignOptions:
    quick: bool = False
    systems: Sequence[str] = FUZZ_SYSTEMS
    workloads: Sequence[str] = WORKLOAD_NAMES
    jobs: int = 1
    corpus_dir: str = DEFAULT_CORPUS_DIR
    minimize_failures: bool = True
    max_minimized: int = 5          # failures minimized+archived per run
    minimize_attempts: int = 40     # re-runs budget per minimization

    @property
    def mode(self) -> CampaignMode:
        return _MODES["quick" if self.quick else "full"]


# --- plan execution -------------------------------------------------------

def _worker(plan_string: str) -> Dict[str, object]:
    """Process-pool worker: one plan, one result dict (picklable)."""
    return run_plan(parse_plan(plan_string)).to_dict()


def run_plans(plan_strings: Sequence[str], jobs: int = 1,
              progress: Optional[ProgressFn] = None,
              stage: str = "fuzz") -> List[Dict[str, object]]:
    """Run every plan; results in input order.

    ``progress`` fires for each plan as its result lands, so the CLI's
    ETA ticks while the fan-out runs.
    """
    plan_strings = list(plan_strings)
    results: List[Dict[str, object]] = []
    for index, outcome in enumerate(fan_out(_worker, plan_strings,
                                            jobs=jobs)):
        results.append(outcome)
        if progress is not None:
            progress(stage, index + 1, len(plan_strings),
                     plan_strings[index])
    return results


# --- enumeration ----------------------------------------------------------

def _occurrence_spread(count: int, budget: int) -> List[int]:
    """Up to ``budget`` occurrence ordinals covering [1, count]."""
    if count <= budget:
        return list(range(1, count + 1))
    picks = {1, count}
    step = (count - 1) / (budget - 1) if budget > 1 else count
    for index in range(1, budget - 1):
        picks.add(1 + round(index * step))
    return sorted(picks)[:budget]


def census_plan(system: str, workload: str,
                mode: CampaignMode) -> CrashPlan:
    return CrashPlan(system=system, workload=workload,
                     seed=mode.seed, epochs=mode.epochs,
                     blocks=mode.blocks, site="ckpt-start",
                     occurrence=_CENSUS_OCCURRENCE)


def generate_plans(census_counts: Dict[Tuple[str, str], Dict[str, int]],
                   options: CampaignOptions) -> List[CrashPlan]:
    """The campaign's plan list, in deterministic generation order."""
    mode = options.mode
    plans: List[CrashPlan] = []
    for system in options.systems:
        for workload in options.workloads:
            counts = census_counts.get((system, workload), {})
            for key in sorted(counts):
                kind, _, detail = key.partition(".")
                for occurrence in _occurrence_spread(
                        counts[key], mode.occurrence_budget):
                    for jitter in mode.jitters:
                        plans.append(CrashPlan(
                            system=system, workload=workload,
                            seed=mode.seed, epochs=mode.epochs,
                            blocks=mode.blocks,
                            site=kind, detail=detail,
                            occurrence=occurrence, jitter=jitter))
    return plans


# --- the campaign ---------------------------------------------------------

def run_campaign(options: CampaignOptions,
                 progress: Optional[ProgressFn] = None) -> Dict[str, object]:
    """Execute the full campaign; returns the deterministic report."""
    version = code_version()
    mode_name = "quick" if options.quick else "full"

    # 1. Corpus replay (regression suite).
    corpus_entries = load_corpus(Path(options.corpus_dir))
    corpus_plans = [str(entry["plan"]) for entry in corpus_entries]
    corpus_results = run_plans(corpus_plans, jobs=options.jobs,
                               progress=progress, stage="corpus")
    regressions = [result for result in corpus_results
                   if result["outcome"] == "fail"]

    # 2. Census: the concrete plan space per system×workload.
    pairs = [(system, workload) for system in options.systems
             for workload in options.workloads]
    census_results = run_plans(
        [str(census_plan(system, workload, options.mode))
         for system, workload in pairs],
        jobs=options.jobs, progress=progress, stage="census")
    census_counts: Dict[Tuple[str, str], Dict[str, int]] = {
        pair: dict(cast(Dict[str, int], result["site_counts"]))
        for pair, result in zip(pairs, census_results)}

    # 3. Enumerate and execute.
    plans = generate_plans(census_counts, options)
    known = set(corpus_plans)
    plan_strings = [str(plan) for plan in plans if str(plan) not in known]
    results = run_plans(plan_strings, jobs=options.jobs,
                        progress=progress, stage="fuzz")

    outcomes: Dict[str, int] = {}
    for result in results:
        outcome = str(result["outcome"])
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    failures = [result for result in results if result["outcome"] == "fail"]

    # 4. Minimize + archive new failures.
    minimized: List[Dict[str, object]] = []
    if options.minimize_failures:
        for failure in failures[:options.max_minimized]:
            original = parse_plan(str(failure["plan"]))
            small, attempts = minimize(
                original, lambda p: run_plan(p).failed,
                max_attempts=options.minimize_attempts)
            small_result = run_plan(small)
            path = archive(Path(options.corpus_dir), small, small_result,
                           version, minimized_from=original)
            minimized.append({
                "plan": str(small),
                "minimized_from": str(original),
                "attempts": attempts,
                "detail": small_result.detail,
                "archived": str(path),
            })

    return {
        "mode": mode_name,
        "systems": list(options.systems),
        "workloads": list(options.workloads),
        "code_version": version,
        "census": {f"{system}/{workload}": census_counts[(system, workload)]
                   for system, workload in pairs},
        "corpus": {
            "entries": len(corpus_entries),
            "regressions": [str(result["plan"]) for result in regressions],
        },
        "plans": len(plan_strings),
        "outcomes": dict(sorted(outcomes.items())),
        "failures": failures,
        "minimized": minimized,
    }


def campaign_failed(report: Dict[str, object]) -> Tuple[bool, bool]:
    """(corpus_regressed, new_failures) — the CLI's exit-code inputs."""
    corpus = report.get("corpus")
    regressed = (bool(corpus.get("regressions"))
                 if isinstance(corpus, dict) else False)
    fresh = bool(report.get("failures"))
    return regressed, fresh
