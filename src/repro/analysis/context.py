"""Per-module analysis context: source, AST and suppression comments.

A :class:`ModuleContext` bundles everything a rule needs to inspect one
Python module.  Inline suppressions use the comment syntax::

    something_flagged()   # lint: ok[rule-id]
    another_thing()       # lint: ok[rule-a, rule-b]
    blanket()             # lint: ok

``# lint: ok`` with no bracket suppresses every rule on that line; the
bracketed form suppresses only the listed rule ids.  Path-based
suppression lives in the runner's :class:`~repro.analysis.runner.LintConfig`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*ok(?:\[([^\]]*)\])?")

# Matches every rule id when a bare "# lint: ok" comment is used.
ALL_RULES = frozenset({"*"})


@dataclass
class ModuleContext:
    """One parsed module plus the metadata rules key off."""

    path: Path                      # as given to the runner (resolved)
    relpath: str                    # posix path used for display + scoping
    source: str
    tree: ast.Module
    # line number -> rule ids suppressed there ("*" = all rules)
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        if rules is None:
            return False
        return "*" in rules or rule_id in rules

    def in_any(self, prefixes: Iterable[str]) -> bool:
        """True if this module's path matches any substring prefix.

        An empty-string prefix matches every module — tests use it to
        force fixture files into a rule family's scope.
        """
        return any(prefix in self.relpath for prefix in prefixes)


def _parse_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    suppressions: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        listed = match.group(1)
        if listed is None:
            suppressions[lineno] = ALL_RULES
        else:
            rules = frozenset(part.strip() for part in listed.split(",")
                              if part.strip())
            suppressions[lineno] = rules if rules else ALL_RULES
    return suppressions


def _display_path(path: Path) -> str:
    """Path shown in findings: relative to cwd when possible."""
    resolved = path.resolve()
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


def load_module(path: Path) -> ModuleContext:
    """Parse one module; raises SyntaxError on unparsable source."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return ModuleContext(
        path=path.resolve(),
        relpath=_display_path(path),
        source=source,
        tree=tree,
        suppressions=_parse_suppressions(source),
    )


def attach_parents(tree: ast.AST) -> None:
    """Annotate every node with a ``_lint_parent`` backlink (idempotent)."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._lint_parent = node  # type: ignore[attr-defined]


def parent_of(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, "_lint_parent", None)


def enclosing_functions(node: ast.AST) -> List[ast.AST]:
    """Function scopes containing ``node``, innermost first.

    Requires :func:`attach_parents` to have run on the module tree.
    """
    chain: List[ast.AST] = []
    current = parent_of(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            chain.append(current)
        current = parent_of(current)
    return chain


def is_method(func: ast.AST) -> bool:
    """True when ``func`` is a function whose direct parent is a class."""
    if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    return isinstance(parent_of(func), ast.ClassDef)
