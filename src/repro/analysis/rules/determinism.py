"""Determinism lint: the simulator must be bit-reproducible.

The benchmark harness compares systems by exact cycle counts, and the
crash-consistency tests replay identical traces; any dependence on the
host clock makes runs non-comparable.  A host-time dependency stays
latent on a fast host, so the golden outputs cannot see it.  The rule
applies only inside the simulator-decision scope (``repro/sim``,
``repro/core``, ``repro/baselines`` by default — see
``LintConfig.determinism_scope``).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, Optional

from ..context import ModuleContext
from ..findings import Finding
from ..registry import Rule, register

if TYPE_CHECKING:
    from ..project import ProjectIndex
    from ..runner import LintConfig

_WALLCLOCK_TIME_FNS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "sleep",
})
_WALLCLOCK_DATETIME_FNS = frozenset({"now", "utcnow", "today"})

def _imported_names(tree: ast.Module) -> Dict[str, str]:
    """name-in-module -> dotted origin ("time", "datetime.datetime"...)."""
    origins: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                origins[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                origins[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}")
    return origins


def _call_dotted(node: ast.Call, origins: Dict[str, str]) -> Optional[str]:
    """Resolve a call target to a dotted origin path, if importable."""
    func = node.func
    parts = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name):
        return None
    origin = origins.get(func.id)
    base = origin if origin is not None else func.id
    parts.append(base)
    return ".".join(reversed(parts))


class _DeterminismRule(Rule):
    family = "determinism"

    def in_scope(self, module: ModuleContext,
                 config: LintConfig) -> bool:
        return module.in_any(config.determinism_scope)


@register
class WallClockRule(_DeterminismRule):
    id = "det-wallclock"
    description = ("wall-clock reads (time.time, datetime.now, ...) make "
                   "simulator output depend on the host clock")

    def check(self, module: ModuleContext, project: ProjectIndex,
              config: LintConfig) -> Iterator[Finding]:
        if not self.in_scope(module, config):
            return
        origins = _imported_names(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _call_dotted(node, origins)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if parts[0] == "time" and parts[-1] in _WALLCLOCK_TIME_FNS:
                yield self.finding(module, node,
                                   f"wall-clock call {dotted}()")
            elif ("datetime" in parts[:-1] or parts[0] == "datetime") and \
                    parts[-1] in _WALLCLOCK_DATETIME_FNS:
                yield self.finding(module, node,
                                   f"wall-clock call {dotted}()")
