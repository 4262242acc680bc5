"""Static crash-consistency model checker (``repro verify``).

Lifts each crash-consistent system into a finite abstract machine
parameterized by statically extracted protocol facts, exhaustively
crashes it after (and inside) every persist transition, checks that
recovery from every crashed state is committed-prefix consistent, and
compiles each counterexample into a concrete ``repro fuzz replay``
plan.  See docs/VERIFY.md.

This package never imports :mod:`repro.fuzz` at module level —
``repro.fuzz`` consumes the analysis package, and counterexample
compilation resolves ``CrashPlan`` lazily to keep the cycle open.
"""

from .checks import all_checks, get_check
from .counterexample import compile_plan, plan_string
from .extract import PROTOCOL_FILES, ProtocolFacts, extract_facts
from .model import (AbstractState, Counterexample, Emission, Exploration,
                    Trace, explore)
from .runner import (VerifyConfig, VerifyReport, abstract_site_kinds,
                     run_verify)
from .schemes import (DEFAULT_EPOCHS, VERIFY_SYSTEMS, VERIFY_WORKLOADS,
                      build_exploration, build_traces)

__all__ = [
    "AbstractState",
    "Counterexample",
    "DEFAULT_EPOCHS",
    "Emission",
    "Exploration",
    "PROTOCOL_FILES",
    "ProtocolFacts",
    "Trace",
    "VERIFY_SYSTEMS",
    "VERIFY_WORKLOADS",
    "VerifyConfig",
    "VerifyReport",
    "abstract_site_kinds",
    "all_checks",
    "build_exploration",
    "build_traces",
    "compile_plan",
    "explore",
    "extract_facts",
    "get_check",
    "plan_string",
    "run_verify",
]
