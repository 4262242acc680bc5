"""The verify check catalogue.

Verify checks reuse the lint :class:`~repro.analysis.registry.Rule`
shape (id, severity, description, rationale, worked examples) so
``repro verify --explain`` reads exactly like ``repro lint --explain``
— but they live in a verify-local catalogue, not the lint registry:
lint rules are per-file AST passes, while verify checks are judgements
about whole-protocol explorations and cannot run under ``repro lint``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from ..findings import Severity
from ..registry import Rule

_CATALOGUE: Dict[str, Type[Rule]] = {}


def register_check(cls: Type[Rule]) -> Type[Rule]:
    if cls.id in _CATALOGUE:
        raise ValueError(f"duplicate verify check id: {cls.id}")
    _CATALOGUE[cls.id] = cls
    return cls


def all_checks() -> List[Type[Rule]]:
    return [_CATALOGUE[check_id] for check_id in sorted(_CATALOGUE)]


def get_check(check_id: str) -> Optional[Type[Rule]]:
    return _CATALOGUE.get(check_id)


@register_check
class CommittedOverwriteCheck(Rule):
    id = "verify-committed-overwrite"
    family = "verify"
    severity = Severity.ERROR
    description = ("A crash after this persist leaves recovery reading "
                   "data newer than the committed epoch.")
    rationale = (
        "Committed-prefix consistency requires that the copies the "
        "committed metadata points at survive untouched until the next "
        "commit lands. If any checkpoint stage writes into the region "
        "holding a committed copy, every crash between that write and "
        "the commit record recovers to mixed-epoch state. The abstract "
        "machine found a reachable crash point where the committed "
        "reference resolves to a cell overwritten by a later epoch.")
    example_bad = (
        "def _promotion_region(self, page):\n"
        "    return REGION_B   # ignores where committed copies live\n")
    example_good = (
        "def _promotion_region(self, page):\n"
        "    # derive from the blocks' committed copies; defer pages\n"
        "    # whose committed blocks straddle both regions\n"
        "    if ref_a and ref_b:\n"
        "        return None\n"
        "    return REGION_A if ref_a else REGION_B\n")


@register_check
class TornRecoveryCheck(Rule):
    id = "verify-torn-recovery"
    family = "verify"
    severity = Severity.ERROR
    description = ("A crash inside this persist leaves a torn image "
                   "that recovery cannot roll back or replay over.")
    rationale = (
        "Multi-write persists are not atomic: power loss mid-stage "
        "leaves a partial image. That is harmless when recovery never "
        "reads the torn location (ping-pong regions) or can replay a "
        "durable log over it (journaling after the log persists). The "
        "abstract machine found a torn crash state where neither holds "
        "— recovery's committed reference resolves to the torn cell "
        "with no durable log covering the epoch. Bulk-run stages are "
        "explored the same way: a dedicated bulk-write step models a "
        "crash with only a prefix of a run's blocks durable, so a "
        "counterexample can land mid-run (site kind `bulk-write`, "
        "detail = stage index).")
    example_bad = (
        "stages = [inplace_stage, log_stage]  # home torn before log\n")
    example_good = (
        "stages = [log_stage, inplace_stage]  # log durable first\n")


@register_check
class PhaseGraphCheck(Rule):
    id = "verify-phase-graph"
    family = "verify"
    severity = Severity.ERROR
    description = ("The abstract exploration used an epoch phase "
                   "transition absent from PHASE_TRANSITIONS.")
    rationale = (
        "The machines drive the same EXECUTING -> ENDING -> "
        "CHECKPOINTING cycle the runtime EpochManager enforces. An "
        "explored phase edge missing from the statically extracted "
        "PHASE_TRANSITIONS table means the model and the protocol "
        "sources disagree — either the table changed without the "
        "verifier, or the verifier models a pipeline the code forbids.")
    example_bad = ("PHASE_TRANSITIONS = {Phase.EXECUTING: set()}  "
                   "# machine still explores ENDING\n")
    example_good = ("PHASE_TRANSITIONS = {Phase.EXECUTING: "
                    "{Phase.ENDING}, ...}\n")


@register_check
class StateGraphCheck(Rule):
    id = "verify-state-graph"
    family = "verify"
    severity = Severity.ERROR
    description = ("The abstract exploration used a ProtocolState "
                   "transition absent from ALLOWED_TRANSITIONS.")
    rationale = (
        "Per-block abstract lifecycles (NVM_WORKING -> "
        "NVM_CHECKPOINTING -> CLEAN, DRAM temps, page overlap) must "
        "stay inside the runtime's ALLOWED_TRANSITIONS table, the same "
        "table the lint graph rules and the property tests pin. A "
        "divergence means the verifier would certify behaviour the "
        "runtime validators reject.")
    example_bad = ("# machine moves HOME -> CLEAN directly\n")
    example_good = ("# machine routes HOME -> NVM_WORKING -> ... -> "
                    "CLEAN per ALLOWED_TRANSITIONS\n")


@register_check
class ModelExtractionCheck(Rule):
    id = "verify-model-extraction"
    family = "verify"
    severity = Severity.WARNING
    description = ("A protocol fact could not be statically extracted; "
                   "the verifier explored pessimistic alternatives, or "
                   "skipped the systems an unreadable plan serves.")
    rationale = (
        "The abstract machines are parameterized by facts read from "
        "the protocol sources: each system's declared CHECKPOINT_PLAN "
        "(stage order, roles, destination rules), the promotion and "
        "adoption policies and the queue's bulk service order. When a "
        "policy expression cannot be classified the exploration fans "
        "out over every candidate behaviour, which keeps the verdict "
        "sound but can surface counterexamples for worlds the code "
        "never enters. A plan that is missing, malformed or names a "
        "role its machine does not model is not explored at all. "
        "Either way a refactor moved something the verifier reads; "
        "keep the declarations and anchors (see docs/VERIFY.md) in "
        "sync.")
    example_bad = ("CHECKPOINT_PLAN = [(role, dest) for role, dest "
                   "in STAGES]  # not a literal\n")
    example_good = ("CHECKPOINT_PLAN = (\n"
                    "    (\"temp\", Dest.COMPLEMENT),\n"
                    "    (\"btt\", Dest.BACKUP),\n"
                    "    (\"page\", Dest.COMPLEMENT),\n"
                    "    (\"ptt\", Dest.BACKUP),\n"
                    ")\n")


def render_check_explain(check_id: str) -> str:
    """``repro verify --explain <ID>``: doc, rationale and examples.

    Falls back to the lint rule catalogue for non-verify ids so the
    one flag explains anything either tool can report.
    """
    check = get_check(check_id)
    if check is None:
        from ..report import render_rule_explain
        return render_rule_explain(check_id)    # KeyError on unknown id
    lines = [f"{check.id} [{check.family}/{check.severity.value}]",
             "", check.description]
    if check.rationale:
        lines += ["", "Why it matters:", f"  {check.rationale}"]
    if check.example_bad:
        lines += ["", "Flagged:"]
        lines += [f"    {line}" for line in check.example_bad.splitlines()]
    if check.example_good:
        lines += ["", "Clean:"]
        lines += [f"    {line}"
                  for line in check.example_good.splitlines()]
    lines += ["", "Counterexamples ship with a replay command: confirm "
                  "with `repro fuzz replay '<plan>'`."]
    return "\n".join(lines)
