"""Finding and severity model for the static analyzer.

A :class:`Finding` is one diagnostic anchored to a source location.
Findings are value objects: rules yield them, the runner filters them
through suppressions and sorts them, and the reporters render them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple


class Severity(enum.Enum):
    """How serious a finding is.

    ``ERROR`` findings always fail the lint run; ``WARNING`` findings
    fail it only under ``--strict``.
    """

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a rule."""

    rule: str              # rule id, e.g. "det-wallclock"
    severity: Severity
    path: str              # posix path of the offending module
    line: int              # 1-based
    col: int               # 0-based (ast convention)
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.severity.value} [{self.rule}] {self.message}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
