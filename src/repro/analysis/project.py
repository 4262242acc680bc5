"""Cross-module project index.

Some rules need facts that live in *other* modules than the one being
checked: which fields make up a BTT/PTT entry (the mutation rule), and
what the MemoryPort protocol surface is (the API rule).  The runner
builds one :class:`ProjectIndex` over every scanned module before rules
run.

When the defining module is not part of the scanned set (e.g. linting a
single file), the index falls back to the constants below, which mirror
``repro/core/metadata.py`` and ``repro/port.py``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .context import ModuleContext
from .effects import EffectGraph

# Fallbacks mirroring repro/core/metadata.py.  `block` and `page` are
# deliberately excluded: they are identity fields, never rewritten, and
# far too generic to track by name.
DEFAULT_ENTRY_FIELDS: FrozenSet[str] = frozenset({
    "stable_region", "pending_epoch", "temp_epochs", "store_count",
    "last_write_epoch", "gc_state", "coop_page", "absorbed_by_page",
    "dram_slot", "dirty_active", "dirty_ckpt", "ckpt_in_progress",
    "demote_requested", "cold_commits",
})

_ENTRY_CLASS_NAMES = ("BlockEntry", "PageEntry")
_ENTRY_IDENTITY_FIELDS = frozenset({"block", "page"})

# Fallback mirroring repro/port.py: method -> leading parameter names
# (after self).
DEFAULT_PORT_SPEC: Dict[str, Tuple[str, ...]] = {
    "read_block": ("addr", "origin", "callback"),
    "write_block": ("addr", "origin", "data", "callback"),
}

@dataclass
class ProjectIndex:
    """Facts aggregated across every scanned module."""

    modules: List[ModuleContext] = field(default_factory=list)
    # Mutable fields of BlockEntry/PageEntry.
    entry_fields: FrozenSet[str] = DEFAULT_ENTRY_FIELDS
    # MemoryPort protocol surface: method -> leading params after self.
    port_spec: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_PORT_SPEC))
    # Linked interprocedural effect graph (race rule family).
    effects: Optional[EffectGraph] = None


def _collect_entry_fields(tree: ast.Module) -> FrozenSet[str]:
    fields = set()
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if node.name not in _ENTRY_CLASS_NAMES:
            continue
        for stmt in node.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                if stmt.target.id not in _ENTRY_IDENTITY_FIELDS:
                    fields.add(stmt.target.id)
    return frozenset(fields)


def _collect_port_spec(tree: ast.Module) -> Dict[str, Tuple[str, ...]]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "MemoryPort":
            spec: Dict[str, Tuple[str, ...]] = {}
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    params = tuple(a.arg for a in stmt.args.args
                                   if a.arg not in ("self", "cls"))
                    spec[stmt.name] = params
            if spec:
                return spec
    return {}


def build_index(modules: Sequence[ModuleContext]) -> ProjectIndex:
    """Aggregate cross-module facts over all scanned modules."""
    entry_fields: FrozenSet[str] = frozenset()
    port_spec: Dict[str, Tuple[str, ...]] = {}
    for module in modules:
        if module.relpath.endswith("core/metadata.py"):
            entry_fields = entry_fields | _collect_entry_fields(module.tree)
        if module.relpath.endswith("repro/port.py"):
            port_spec = _collect_port_spec(module.tree)
    return ProjectIndex(
        modules=list(modules),
        entry_fields=entry_fields or DEFAULT_ENTRY_FIELDS,
        port_spec=port_spec or dict(DEFAULT_PORT_SPEC),
        effects=EffectGraph.build(modules),
    )
