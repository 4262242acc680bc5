"""Collect files, run rules, filter suppressions, aggregate findings.

:func:`run_analysis` is the single entry point used by the CLI and the
tests; every run parses and analyzes the whole tree it is given.
Scoping is configured through :class:`LintConfig`:

* ``determinism_scope`` — substring prefixes selecting the modules the
  determinism family applies to (the simulator-decision core).  An
  empty-string entry matches everything (used by fixture tests).
* ``core_prefixes`` — what counts as "inside repro/core" for the
  checkpoint-invariant rules.
* ``suppressions`` — path-based suppression: ``(glob, rule-ids)`` pairs;
  a rule id of ``"*"`` silences every rule for matching paths.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .context import ModuleContext, load_module
from .findings import Finding, Severity
from .project import build_index
from .registry import all_rules

DEFAULT_DETERMINISM_SCOPE = ("repro/sim/", "repro/core/", "repro/baselines/")
DEFAULT_CORE_PREFIXES = ("repro/core/",)
# Where the committed-snapshot rule applies (the §4.4 machinery).
DEFAULT_PERSIST_SCOPE = ("repro/core/", "repro/mem/")
# Where same-cycle race findings are reported (any scheduling layer).
DEFAULT_RACE_SCOPE = ("repro/",)
# Where the bulk-run typestate rules apply: every layer that traffics
# in MemoryRequest.bulk runs.
DEFAULT_TYPESTATE_SCOPE = ("repro/sim/", "repro/mem/", "repro/core/",
                           "repro/baselines/")


@dataclass(frozen=True)
class LintConfig:
    """Knobs for one analysis run."""

    determinism_scope: Tuple[str, ...] = DEFAULT_DETERMINISM_SCOPE
    core_prefixes: Tuple[str, ...] = DEFAULT_CORE_PREFIXES
    persist_scope: Tuple[str, ...] = DEFAULT_PERSIST_SCOPE
    race_scope: Tuple[str, ...] = DEFAULT_RACE_SCOPE
    typestate_scope: Tuple[str, ...] = DEFAULT_TYPESTATE_SCOPE
    # (path glob, rule ids) — "*" as a rule id silences all rules.
    suppressions: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    # Restrict the run to these rule ids (None = all registered rules).
    select: Optional[Tuple[str, ...]] = None


@dataclass
class AnalysisReport:
    """The outcome of one analysis run."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings
                   if f.severity is Severity.ERROR)

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings
                   if f.severity is Severity.WARNING)

    def exit_code(self, strict: bool = False) -> int:
        """0 = clean.  Errors always fail; warnings fail under strict."""
        if self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of .py files."""
    files = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def _path_suppressed(config: LintConfig, finding: Finding) -> bool:
    for pattern, rule_ids in config.suppressions:
        if not (fnmatch.fnmatch(finding.path, pattern)
                or pattern in finding.path):
            continue
        if "*" in rule_ids or finding.rule in rule_ids:
            return True
    return False


def run_analysis(paths: Sequence[Union[str, Path]],
                 config: Optional[LintConfig] = None) -> AnalysisReport:
    """Analyze ``paths`` (files or directories) under ``config``.

    Every file is parsed and every selected rule runs on every parsed
    module: the project index and effect graph are whole-tree inputs.
    """
    config = config if config is not None else LintConfig()
    files = iter_python_files(Path(p) for p in paths)
    modules: List[ModuleContext] = []
    findings: List[Finding] = []
    for file_path in files:
        try:
            modules.append(load_module(file_path))
        except SyntaxError as exc:
            findings.append(Finding(
                rule="parse-error",
                severity=Severity.ERROR,
                path=str(file_path),
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"cannot parse module: {exc.msg}",
            ))
    index = build_index(modules)
    selected = None if config.select is None else set(config.select)
    for module in modules:
        for rule in all_rules():
            if selected is not None and rule.id not in selected:
                continue
            for finding in rule.check(module, index, config):
                if module.is_suppressed(finding.rule, finding.line):
                    continue
                if _path_suppressed(config, finding):
                    continue
                findings.append(finding)
    # Canonical report-time order, fully keyed (message included as the
    # final tiebreaker) so output does not depend on rule order.
    findings.sort(key=lambda f: (*f.sort_key(), f.message))
    return AnalysisReport(findings=findings, files_scanned=len(files))
