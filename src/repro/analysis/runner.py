"""Collect files, run rules, filter suppressions, aggregate findings.

:func:`run_analysis` is the single entry point used by the CLI and the
tests.  Scoping is configured through :class:`LintConfig`:

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
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Tuple, Union

from .context import ModuleContext, load_module
from .findings import Finding, Severity
from .project import build_index
from .registry import all_rules

DEFAULT_DETERMINISM_SCOPE = ("repro/sim/", "repro/core/", "repro/baselines/")
DEFAULT_CORE_PREFIXES = ("repro/core/",)
# Where the persist-order dataflow rules apply (the §4.4 machinery).
DEFAULT_PERSIST_SCOPE = ("repro/core/", "repro/mem/")
# Where same-cycle race findings are reported (any scheduling layer).
DEFAULT_RACE_SCOPE = ("repro/",)
# Where the bulk-run typestate rules apply: every layer that traffics
# in MemoryRequest.bulk runs or crashable controllers.
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
    # Incremental-cache observability (both 0 when caching is off).
    files_cached: int = 0
    files_analyzed: int = 0

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
                 config: Optional[LintConfig] = None,
                 cache_dir: Optional[Union[str, Path]] = None,
                 restrict_to: Optional[Iterable[Union[str, Path]]] = None,
                 ) -> AnalysisReport:
    """Analyze ``paths`` (files or directories) under ``config``.

    With a ``cache_dir``, per-file findings are loaded from the
    incremental cache (:mod:`repro.analysis.cache`) when the file, the
    rule set, the config *and* the cross-module facts are all
    unchanged.  Every file is still parsed — the project index and
    effect graph are global inputs — but rule execution is skipped for
    cache hits.

    ``restrict_to`` (``--changed-only``) limits *reporting* to the
    given files: every file under ``paths`` is still parsed so the
    cross-module index and effect graph stay whole-project, but rule
    execution, caching and findings cover only the restricted set.
    """
    from . import cache as lint_cache

    config = config if config is not None else LintConfig()
    cache = Path(cache_dir) if cache_dir is not None else None
    files = iter_python_files(Path(p) for p in paths)
    restrict = (None if restrict_to is None
                else {Path(p).resolve() for p in restrict_to})
    loaded: List[Tuple[Path, ModuleContext]] = []
    findings: List[Finding] = []
    files_cached = 0
    files_analyzed = 0
    for file_path in files:
        try:
            loaded.append((file_path, load_module(file_path)))
        except SyntaxError as exc:
            findings.append(Finding(
                rule="parse-error",
                severity=Severity.ERROR,
                path=str(file_path),
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"cannot parse module: {exc.msg}",
            ))
            files_analyzed += 1          # unparsable files never cache
    index = build_index([module for _, module in loaded])
    facts = (lint_cache.facts_digest(index, config)
             if cache is not None else "")
    selected = None if config.select is None else set(config.select)
    for file_path, module in loaded:
        if restrict is not None and file_path.resolve() not in restrict:
            continue
        key = None
        if cache is not None:
            key = lint_cache.entry_key(module.relpath, module.source, facts)
            cached = lint_cache.load_findings(cache, key)
            if cached is not None:
                findings.extend(cached)
                files_cached += 1
                continue
        module_findings: List[Finding] = []
        for rule in all_rules():
            if selected is not None and rule.id not in selected:
                continue
            for finding in rule.check(module, index, config):
                if module.is_suppressed(finding.rule, finding.line):
                    continue
                if _path_suppressed(config, finding):
                    continue
                module_findings.append(finding)
        if cache is not None and key is not None:
            lint_cache.store_findings(cache, key, module.relpath,
                                      module_findings)
        findings.extend(module_findings)
        files_analyzed += 1
    # Canonical report-time order: fully keyed (message included as the
    # final tiebreaker) so cold and warm cache runs emit byte-identical
    # output regardless of rule-execution vs cache-merge ordering.
    findings.sort(key=lambda f: (*f.sort_key(), f.message))
    return AnalysisReport(findings=findings, files_scanned=len(files),
                          files_cached=files_cached,
                          files_analyzed=files_analyzed)


def changed_files(paths: Sequence[Union[str, Path]]) -> Optional[List[Path]]:
    """Git-diff-aware file selection for ``repro lint --changed-only``.

    The restricted set is every tracked file modified against ``HEAD``
    (worktree or index) plus untracked non-ignored files, intersected
    with the ``.py`` files under ``paths``.  Returns None when the
    working directory is not inside a git work tree (the CLI turns
    that into a usage error rather than silently linting everything).
    """
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    repo_root = Path(top)
    changed: Set[Path] = set()
    for args in (["git", "diff", "--name-only", "HEAD"],
                 ["git", "diff", "--name-only", "--cached"],
                 ["git", "ls-files", "--others", "--exclude-standard"]):
        try:
            out = subprocess.run(args, capture_output=True, text=True,
                                 check=True).stdout
        except (OSError, subprocess.CalledProcessError):
            return None
        for name in out.splitlines():
            if name:
                changed.add((repo_root / name).resolve())
    targets = iter_python_files(Path(p) for p in paths)
    return [path for path in targets if path.resolve() in changed]
