"""Drive the verifier: extract facts, explore, report.

``run_verify`` is to ``repro verify`` what
:func:`repro.analysis.runner.run_analysis` is to ``repro lint``: it
extracts the protocol facts once, explores every configured system's
abstract machine, and returns the findings plus a per-system summary
that the CLI renders through the shared formatter registry.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from ..findings import Finding, Severity
from ..report import ToolReport
from .counterexample import plan_string
from .extract import ProtocolFacts, default_root, extract_facts
from .model import Counterexample, Exploration
from .schemes import (DEFAULT_EPOCHS, VERIFY_SYSTEMS, VERIFY_WORKLOADS,
                      build_exploration)


@dataclass(frozen=True)
class VerifyConfig:
    """What to verify."""

    systems: Tuple[str, ...] = VERIFY_SYSTEMS
    workloads: Tuple[str, ...] = VERIFY_WORKLOADS
    epochs: int = DEFAULT_EPOCHS


@dataclass
class VerifyReport:
    """One verification run's findings and accounting."""

    findings: List[Finding] = field(default_factory=list)
    systems: Dict[str, Dict[str, object]] = field(default_factory=dict)
    systems_scanned: int = 0

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings
                   if f.severity is Severity.ERROR)

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings
                   if f.severity is Severity.WARNING)

    def exit_code(self, strict: bool = False) -> int:
        if self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0


def _display_path(root: Path, rel: str) -> str:
    """Anchor path (root-relative) -> path usable from the CWD."""
    if not rel:
        return rel
    try:
        return os.path.relpath(root / rel)
    except ValueError:      # pragma: no cover - cross-drive on win32
        return str(root / rel)


def _counterexample_finding(root: Path, workload_note: str,
                            ce: Counterexample) -> Finding:
    try:
        plan = plan_string(ce)
        replay = f"replay: repro fuzz replay '{plan}'"
    except Exception:       # site kind outside the runtime taxonomy
        plan = None
        replay = ("no runtime site maps to this abstract crash edge "
                  "(see fuzz.sites.coverage_gaps)")
    parts = [
        f"committed-prefix violation in {ce.system}/{ce.workload} "
        f"crashing at {ce.site.key()}#{ce.occurrence}"
        f"{' (torn persist)' if ce.torn else ''}: {ce.reason}",
    ]
    if ce.assumption:
        parts.append(f"under assumption: {ce.assumption}")
    parts.append(replay)
    path, line = ce.anchor
    return Finding(
        rule=ce.check,
        severity=Severity.ERROR,
        path=_display_path(root, path) if path else workload_note,
        line=max(1, line),
        col=0,
        message="; ".join(parts),
    )


def _graph_findings(root: Path, facts: ProtocolFacts,
                    exploration: Exploration) -> List[Finding]:
    """Certify explored phase/protocol-state edges against the
    statically extracted transition tables."""
    findings: List[Finding] = []
    if facts.phase_graph is not None:
        for old, new in sorted(exploration.phase_edges):
            if new not in facts.phase_graph.get(old, frozenset()):
                findings.append(Finding(
                    rule="verify-phase-graph", severity=Severity.ERROR,
                    path=_display_path(root, "core/epoch.py"), line=1,
                    col=0,
                    message=(f"{exploration.system}: abstract machine "
                             f"takes phase edge {old} -> {new}, absent "
                             f"from PHASE_TRANSITIONS")))
    if facts.state_graph is not None:
        for obj in sorted(exploration.state_edges):
            for old, new in sorted(exploration.state_edges[obj]):
                if new not in facts.state_graph.get(old, frozenset()):
                    findings.append(Finding(
                        rule="verify-state-graph",
                        severity=Severity.ERROR,
                        path=_display_path(root, "core/versions.py"),
                        line=1, col=0,
                        message=(f"{exploration.system}: abstract "
                                 f"object {obj} takes protocol-state "
                                 f"edge {old} -> {new}, absent from "
                                 f"ALLOWED_TRANSITIONS")))
    return findings


def _extraction_findings(root: Path,
                         facts: ProtocolFacts) -> List[Finding]:
    return [Finding(rule=w.rule, severity=w.severity,
                    path=_display_path(root, w.path), line=w.line,
                    col=w.col, message=w.message)
            for w in facts.warnings]


def _system_summary(exploration: Exploration) -> Dict[str, object]:
    counterexamples: List[Dict[str, object]] = []
    for ce in exploration.counterexamples:
        try:
            plan: Optional[str] = plan_string(ce)
        except Exception:
            plan = None
        counterexamples.append({
            "check": ce.check,
            "site": ce.site.key(),
            "occurrence": ce.occurrence,
            "epochs": ce.epochs,
            "torn": ce.torn,
            "workload": ce.workload,
            "reason": ce.reason,
            "assumption": ce.assumption,
            "plan": plan,
            "trace": list(ce.trace),
        })
    return {
        "traces": len(exploration.traces),
        "states": len(exploration.states),
        "crash_points": exploration.crash_points,
        "emissions": {kind: sorted(details) for kind, details
                      in sorted(exploration.emissions.items())},
        "counterexamples": counterexamples,
    }


def run_verify(config: Optional[VerifyConfig] = None,
               root: Optional[Path] = None) -> VerifyReport:
    """Extract the protocol facts once, then verify each system."""
    config = config if config is not None else VerifyConfig()
    root = root if root is not None else default_root()
    report = VerifyReport()
    facts = extract_facts(root)
    report.findings.extend(_extraction_findings(root, facts))
    for system in config.systems:
        report.systems_scanned += 1
        exploration = build_exploration(system, facts, config.epochs,
                                        config.workloads)
        report.findings.extend(_graph_findings(root, facts, exploration))
        report.findings.extend(
            _counterexample_finding(root, f"{system} (abstract)", ce)
            for ce in exploration.counterexamples)
        report.systems[system] = _system_summary(exploration)
    report.findings.sort(key=lambda f: (*f.sort_key(), f.message))
    return report


def abstract_site_kinds(system: str,
                        root: Optional[Path] = None) -> Dict[str, Set[str]]:
    """Probe-kind -> details the abstract machine emits for ``system``.

    Used by :func:`repro.fuzz.sites.coverage_gaps` for the reverse
    cross-validation: every abstract crash edge must map to a runtime
    site kind.
    """
    facts = extract_facts(root if root is not None else default_root())
    exploration = build_exploration(system, facts)
    return dict(exploration.emissions)


def verify_tool_report(report: VerifyReport) -> ToolReport:
    """Adapt a VerifyReport for the shared formatter registry."""
    return ToolReport(
        findings=list(report.findings),
        summary_line=(f"{report.errors} error(s), "
                      f"{report.warnings} warning(s) "
                      f"in {report.systems_scanned} system(s)"),
        summary={
            "errors": report.errors,
            "warnings": report.warnings,
            "systems_scanned": report.systems_scanned,
        },
        extra={"systems": report.systems},
    )
