"""One parsed module: the input of the effect classifier."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path


@dataclass
class ModuleContext:
    """One parsed module plus the path its qualnames are keyed by."""

    relpath: str                    # posix path used for display
    tree: ast.Module


def _display_path(path: Path) -> str:
    """Path shown in site anchors: relative to cwd when possible."""
    resolved = path.resolve()
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


def load_module(path: Path) -> ModuleContext:
    """Parse one module; raises SyntaxError on unparsable source."""
    source = path.read_text(encoding="utf-8")
    return ModuleContext(relpath=_display_path(path),
                         tree=ast.parse(source, filename=str(path)))
