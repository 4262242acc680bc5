"""Protocol-aware static analysis for the ThyNVM reproduction.

An AST-based analyzer with six rule families, run as ``repro lint``:

* **determinism** — the simulator must be bit-reproducible (no wall
  clock, no global RNG, no id() ordering, no raw set iteration on
  simulator-decision paths);
* **protocol** — the checkpointing protocol's transition tables must be
  well-formed and match what the runtime validators enforce, and
  BTT/PTT entry state may only change inside ``repro/core`` protocol
  methods;
* **api** — MemoryPort implementors must carry the full port surface,
  and ``__all__`` declarations must stay truthful;
* **persist** — the §4.4 persist-ordering contract: commits dominated
  by fences over outstanding durable writes, immutable committed
  snapshots, no table mutation under an in-flight table persist
  (backed by the interprocedural effect graph in ``effects.py``);
* **race** — same-cycle event handlers must not write the same
  attribute unless explicitly sequenced (heap-insertion-order hazard);
* **typestate** — the bulk-run protocol: monotone, never-aliased
  progress cursors (``completed <= serviced <= issued <= total``),
  congruent parallel arrays, the tail-merge admission contract and
  crashed-flag gating.

The static crash-consistency model checker (``repro verify``) lives in
the :mod:`repro.analysis.verify` subpackage; it is intentionally *not*
imported here — import it explicitly so plain lint runs never pay for
(or entangle themselves with) the abstract-machine machinery.

See ``docs/ANALYSIS.md`` for the rule catalogue and suppression
syntax, and ``docs/VERIFY.md`` for the model checker.
"""

from .context import ModuleContext, load_module
from .effects import Effect, EffectGraph
from .findings import Finding, Severity
from .graphs import dead_states, extract_enum_members, \
    extract_transition_table, reachable
from .project import ProjectIndex, build_index
from .registry import Rule, all_rules, get_rule, register
from .report import FORMATTERS, ToolReport, format_github, format_json, \
    format_text, lint_tool_report, render, render_rule_catalogue, \
    render_rule_explain
from .runner import AnalysisReport, LintConfig, iter_python_files, \
    run_analysis

__all__ = [
    "AnalysisReport",
    "Effect",
    "EffectGraph",
    "FORMATTERS",
    "Finding",
    "LintConfig",
    "ModuleContext",
    "ProjectIndex",
    "Rule",
    "Severity",
    "ToolReport",
    "all_rules",
    "build_index",
    "dead_states",
    "extract_enum_members",
    "extract_transition_table",
    "format_github",
    "format_json",
    "format_text",
    "get_rule",
    "iter_python_files",
    "lint_tool_report",
    "load_module",
    "reachable",
    "register",
    "render",
    "render_rule_catalogue",
    "render_rule_explain",
    "run_analysis",
]
