"""Rule base class and registry.

Rules register themselves with the :func:`register` decorator at import
time; :func:`all_rules` returns them in a deterministic (id-sorted)
order.  A rule inspects one module at a time but receives the
cross-module :class:`~repro.analysis.project.ProjectIndex` so it can
reason about names declared elsewhere (set-typed attributes, the
BTT/PTT entry fields, the MemoryPort surface).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Type

from .context import ModuleContext
from .findings import Finding, Severity

if TYPE_CHECKING:       # circular at runtime: runner imports registry
    from .project import ProjectIndex
    from .runner import LintConfig


class Rule:
    """One named check.  Subclasses set the class attributes and
    implement :meth:`check`."""

    id: str = ""
    # "determinism" | "protocol" | "api" | "persist" | "race" | "typestate"
    family: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    # Optional teaching material surfaced by `repro lint --explain`.
    rationale: str = ""
    example_bad: str = ""
    example_good: str = ""

    def check(self, module: ModuleContext, project: ProjectIndex,
              config: LintConfig) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleContext, node: ast.AST, message: str,
                severity: Optional[Severity] = None) -> Finding:
        """Build a finding anchored at ``node`` in ``module``."""
        return Finding(
            rule=self.id,
            severity=self.severity if severity is None else severity,
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a rule by its id."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id (stable output ordering)."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    _load_builtin_rules()
    return _REGISTRY[rule_id]


def rule_ids() -> Iterable[str]:
    _load_builtin_rules()
    return sorted(_REGISTRY)


def _load_builtin_rules() -> None:
    """Import the built-in rule modules (registration side effect)."""
    from . import rules  # noqa: F401  (imports register the rules)
