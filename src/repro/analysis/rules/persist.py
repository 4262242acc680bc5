"""Committed-snapshot immutability (family: ``persist``).

Recovery may read the committed snapshot (``committed_meta``, the
paper's C_last) at any crash point, so it is never mutated in place: a
commit builds a new snapshot and swaps it in.  Scoping comes from
``LintConfig.persist_scope`` (default: ``repro/core/`` +
``repro/mem/``).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from ..context import ModuleContext
from ..effects import COMMIT_ATTRIBUTE, STRUCTURAL_MUTATORS
from ..findings import Finding, Severity
from ..registry import Rule, register

if TYPE_CHECKING:
    from ..project import ProjectIndex
    from ..runner import LintConfig

# Methods that mutate the object they are called on; used to spot
# writes *through* a committed snapshot.
_MUTATING_METHODS = STRUCTURAL_MUTATORS | frozenset({
    "mark_dirty", "clear_dirty", "add", "discard", "update", "clear",
    "pop", "append", "extend", "setdefault",
})


def _chain_has_committed(node: ast.AST) -> bool:
    """True when an attribute/subscript chain passes through
    ``committed_meta`` *above* its root (i.e. access through it)."""
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        if isinstance(current, ast.Attribute):
            if current.attr == COMMIT_ATTRIBUTE:
                return True
            current = current.value
        else:
            current = current.value
    return False


@register
class CommittedMutationRule(Rule):
    """Mutation through an already-committed metadata snapshot."""

    id = "persist-committed-mutation"
    family = "persist"
    severity = Severity.ERROR
    description = ("committed_meta is a durable snapshot (C_last); "
                   "mutating through it rewrites committed state in "
                   "place instead of building a new snapshot")
    rationale = (
        "The three-version discipline (W_active / C_last / C_penult) "
        "only recovers correctly because committed snapshots are "
        "immutable: recovery may read C_last at any crash point.  Any "
        "in-place store or mutating call through committed_meta "
        "silently corrupts the recovery image.")
    example_bad = (
        "self.committed_meta.block_regions[block] = region  # in place")
    example_good = (
        "self.committed_meta = self._snapshot(epoch)  # whole-snapshot swap")

    def check(self, module: ModuleContext, project: ProjectIndex,
              config: LintConfig) -> Iterator[Finding]:
        if not module.in_any(config.persist_scope):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if self._mutates_through(target):
                        yield self.finding(
                            module, node,
                            "in-place store through committed_meta; "
                            "committed snapshots are immutable — build a "
                            "new snapshot and swap it in")
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATING_METHODS
                    and _chain_has_committed(node.func.value)):
                yield self.finding(
                    node=node, module=module,
                    message=f"mutating call .{node.func.attr}() through "
                            "committed_meta; committed snapshots are "
                            "immutable")

    @staticmethod
    def _mutates_through(target: ast.AST) -> bool:
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(CommittedMutationRule._mutates_through(element)
                       for element in target.elts)
        if isinstance(target, ast.Subscript):
            return _chain_has_committed(target.value)
        if isinstance(target, ast.Attribute):
            # `x.committed_meta = ...` swaps the snapshot (fine);
            # anything *deeper* mutates through it.
            return _chain_has_committed(target.value)
        return False
