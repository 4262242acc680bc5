"""Crash-schedule fuzzing campaign (``repro fuzz``).

ThyNVM's claim is that recovery is correct at *any* crash point.  The
property tests sample that space; this package *enumerates* it.  The
pieces, in pipeline order:

* :data:`repro.core.probes.SITE_KINDS` — the crash-site taxonomy: the
  protocol events a plan can crash at; :func:`~repro.fuzz.runner.census`
  counts how often each fires per system×workload.
* :mod:`~repro.fuzz.plan` — :class:`CrashPlan`, a picklable, string-
  round-trippable description of exactly one crash schedule.
* :mod:`~repro.fuzz.workloads` — small deterministic write schedules
  driven directly into a controller (no CPU model in the loop).
* :mod:`~repro.fuzz.runner` — executes one plan: drive, crash at the
  armed site, recover, check the committed-prefix oracle.
* :mod:`~repro.fuzz.campaign` — fans plans over worker processes,
  replaying the archived corpus first.
* :mod:`~repro.fuzz.minimize` — shrinks a failing plan to a minimal
  reproducer.
* :mod:`~repro.fuzz.corpus` — the ``fuzz-corpus/`` archive of minimized
  reproducers (a crash-consistency regression suite).

See ``docs/FUZZING.md`` for the workflow.
"""

from .plan import CrashPlan, parse_plan
from .runner import FuzzResult, run_plan

__all__ = ["CrashPlan", "parse_plan", "FuzzResult", "run_plan"]
