"""Rendering of analysis reports: one formatter registry, many tools.

``repro lint`` and ``repro verify`` produce different report objects
(:class:`~repro.analysis.runner.AnalysisReport`,
:class:`~repro.analysis.verify.runner.VerifyReport`) but share every
output format.  Both are adapted into a neutral :class:`ToolReport`
and rendered through :data:`FORMATTERS`: text, json and github
workflow annotations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from .findings import Finding
from .registry import all_rules
from .runner import AnalysisReport


@dataclass
class ToolReport:
    """Tool-neutral view of a findings report for the formatters."""

    findings: List[Finding]
    summary_line: str                    # trailing human summary
    summary: Dict[str, object]           # json "summary" object
    extra: Dict[str, object] = field(default_factory=dict)


def lint_tool_report(report: AnalysisReport) -> ToolReport:
    return ToolReport(
        findings=list(report.findings),
        summary_line=(f"{report.errors} error(s), "
                      f"{report.warnings} warning(s) "
                      f"in {report.files_scanned} file(s)"),
        summary={
            "errors": report.errors,
            "warnings": report.warnings,
            "files_scanned": report.files_scanned,
        },
    )


def format_text(report: ToolReport) -> str:
    lines: List[str] = [finding.render() for finding in report.findings]
    lines.append(report.summary_line)
    return "\n".join(lines)


def format_json(report: ToolReport) -> str:
    payload: Dict[str, object] = {
        "findings": [finding.to_dict() for finding in report.findings],
        "summary": report.summary,
    }
    payload.update(report.extra)
    return json.dumps(payload, indent=2)


def _github_escape(text: str) -> str:
    """Escape a message for a workflow-command property value."""
    return (text.replace("%", "%25").replace("\r", "%0D")
            .replace("\n", "%0A"))


def format_github(report: ToolReport) -> str:
    """GitHub Actions workflow commands: findings annotate PR diffs.

    One ``::error``/``::warning`` line per finding (ast's 0-based
    columns become 1-based for the annotation API), then the human
    summary line, which GitHub prints as plain log output.
    """
    lines: List[str] = []
    for finding in report.findings:
        kind = "error" if finding.severity.value == "error" else "warning"
        lines.append(
            f"::{kind} file={finding.path},line={finding.line},"
            f"col={finding.col + 1},title={finding.rule}::"
            f"{_github_escape(finding.message)}")
    lines.append(report.summary_line)
    return "\n".join(lines)


#: The formatter registry both CLIs dispatch through.
FORMATTERS: Dict[str, Callable[[ToolReport], str]] = {
    "text": format_text,
    "json": format_json,
    "github": format_github,
}


def render(report: ToolReport, fmt: str) -> str:
    try:
        formatter = FORMATTERS[fmt]
    except KeyError:
        raise KeyError(f"unknown output format {fmt!r} "
                       f"(have: {', '.join(sorted(FORMATTERS))})")
    return formatter(report)


def render_rule_catalogue() -> str:
    """Human-readable list of every registered rule."""
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.id:26s} [{rule.family}/{rule.severity.value}] "
                     f"{rule.description}")
    return "\n".join(lines)


def render_rule_explain(rule_id: str) -> str:
    """`repro lint --explain <RULE_ID>`: doc, rationale and examples."""
    from .registry import get_rule

    rule = get_rule(rule_id)             # raises KeyError on unknown id
    lines = [f"{rule.id} [{rule.family}/{rule.severity.value}]",
             "", rule.description]
    if rule.rationale:
        lines += ["", "Why it matters:", f"  {rule.rationale}"]
    if rule.example_bad:
        lines += ["", "Flagged:"]
        lines += [f"    {line}" for line in rule.example_bad.splitlines()]
    if rule.example_good:
        lines += ["", "Clean:"]
        lines += [f"    {line}" for line in rule.example_good.splitlines()]
    lines += ["", f"Suppress one site with: "
                  f"# lint: ok[{rule.id}]  (justify it in the comment)"]
    return "\n".join(lines)
