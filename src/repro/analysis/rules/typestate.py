"""Bulk-run typestate rules (family: ``typestate``).

PR 8's batched array-core gave every bulk run a small protocol of its
own: four cursors obeying ``0 <= completed <= serviced <= issued <=
total``, parallel per-block arrays (``block_data`` preallocated to the
run, ``admit_times`` grown once per admitted block) and a tail-merge
contract on ``grow_bulk``/``try_enqueue_bulk`` (a refused admission
*must* fall back to a position-exact single request).  These rules
enforce that protocol statically:

* cursors only ever advance (``typestate-cursor-monotonic``) and are
  never aliased across ranks (``typestate-cursor-order``);
* the parallel arrays keep slot ``i`` == block ``i``
  (``typestate-parallel-arrays``);
* admission results are never discarded (``typestate-grow-tail-only``).

Scoping comes from ``LintConfig.typestate_scope`` (default: the
simulator layers that traffic in ``MemoryRequest.bulk`` runs).  The
cursor rules only engage on *bulk-cursor carriers* — expressions that
touch two or more distinct cursor names inside one function — so a
``stats.total`` counter elsewhere never trips them.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Set, Tuple

from ..context import ModuleContext, attach_parents
from ..findings import Finding, Severity
from ..registry import Rule, register

if TYPE_CHECKING:
    from ..project import ProjectIndex
    from ..runner import LintConfig

#: Bulk-run progress cursors, invariant order: each may never exceed
#: the next.  ``queued`` is a gauge (admitted-but-unserviced), not a
#: cursor, and is exempt.
CURSORS: Tuple[str, ...] = ("completed", "serviced", "issued", "total")
_CURSOR_RANK: Dict[str, int] = {name: rank for rank, name
                                in enumerate(CURSORS)}
#: Functions allowed to (re)initialize cursors and run arrays wholesale:
#: constructors, the ``bulk`` factory, and crash/teardown paths.
_RESET_CONTEXTS = frozenset({"__init__", "bulk", "crash", "drop_all",
                             "reset"})
#: Preallocated to ``total`` by ``MemoryRequest.bulk``; slot ``i`` is
#: block ``i`` and only subscript stores are congruent.
_FIXED_ARRAYS = frozenset({"block_data"})
#: Appended once per admitted block; slot ``i`` is block ``i`` only
#: while growth is append-only.
_GROWN_ARRAYS = frozenset({"admit_times"})
#: Every bulk-run side array (``fences`` holds per-fence pairs, so only
#: whole-array reassignment is constrained for it).
_RUN_ARRAYS = _FIXED_ARRAYS | _GROWN_ARRAYS | frozenset({"fences"})
_GROWERS = frozenset({"append", "extend", "insert"})
_ADMITTERS = frozenset({"grow_bulk", "try_enqueue_bulk"})


def _shallow(node: ast.AST) -> Iterator[ast.AST]:
    """Child nodes of ``node`` without descending into nested scopes."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(child))


def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _base_text(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:                    # pragma: no cover - defensive
        return ""


def _cursor_bases(func: ast.AST) -> Dict[str, Set[str]]:
    """base-expression text -> distinct cursor names touched on it."""
    bases: Dict[str, Set[str]] = {}
    for node in _shallow(func):
        if isinstance(node, ast.Attribute) and node.attr in _CURSOR_RANK:
            base = _base_text(node.value)
            if base:
                bases.setdefault(base, set()).add(node.attr)
    return bases


def _is_carrier(bases: Dict[str, Set[str]], base: str) -> bool:
    """An object is a bulk-cursor carrier when the function relates two
    or more of its cursors — the invariant is about their *ordering*,
    so a lone counter named ``total`` elsewhere never qualifies."""
    return len(bases.get(base, ())) >= 2


def _cursor_target(node: ast.AST) -> Optional[ast.Attribute]:
    if isinstance(node, ast.Attribute) and node.attr in _CURSOR_RANK:
        return node
    return None


class _TypestateRule(Rule):
    family = "typestate"

    def in_scope(self, module: ModuleContext, config: "LintConfig") -> bool:
        return module.in_any(getattr(config, "typestate_scope",
                                     ("repro/",)))


@register
class CursorMonotonicRule(_TypestateRule):
    """Bulk cursors only ever advance outside reset contexts."""

    id = "typestate-cursor-monotonic"
    severity = Severity.ERROR
    description = ("a bulk-run progress cursor (completed/serviced/"
                   "issued/total) is decremented or reset to a constant "
                   "outside a constructor or crash/teardown path; "
                   "cursors are monotone while a run is live")
    rationale = (
        "Queue capacity accounting, fence coverage and completion "
        "callbacks all derive from cursor *differences* (queued slots = "
        "issued - serviced, fence coverage = serviced - completed).  A "
        "cursor that moves backwards while its run is queued silently "
        "corrupts every one of those derived counts — blocks are "
        "serviced twice, fences fire early, or the run never drains.  "
        "Only construction (MemoryRequest.bulk) and crash teardown "
        "(drop_all) may rewind cursors, because there the whole run is "
        "being born or discarded.")
    example_bad = (
        "def _service_head_block(self, request):\n"
        "    request.serviced -= 1          # cursor moves backwards")
    example_good = (
        "def _service_head_block(self, request):\n"
        "    request.serviced += 1          # one block started service")

    def check(self, module: ModuleContext, project: "ProjectIndex",
              config: "LintConfig") -> Iterator[Finding]:
        if not self.in_scope(module, config):
            return
        for func in _functions(module.tree):
            if func.name in _RESET_CONTEXTS:
                continue
            bases = _cursor_bases(func)
            for node in _shallow(func):
                if isinstance(node, ast.AugAssign):
                    target = _cursor_target(node.target)
                    if (target is not None
                            and isinstance(node.op, ast.Sub)
                            and _is_carrier(bases,
                                            _base_text(target.value))):
                        yield self.finding(
                            module, node,
                            f"bulk cursor .{target.attr} is decremented "
                            f"in {func.name}; run cursors are monotone "
                            f"outside construction and crash teardown")
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (node.targets
                               if isinstance(node, ast.Assign)
                               else [node.target])
                    if not isinstance(node.value, ast.Constant):
                        continue
                    for raw in targets:
                        target = _cursor_target(raw)
                        if (target is not None
                                and _is_carrier(bases,
                                                _base_text(target.value))):
                            yield self.finding(
                                module, node,
                                f"bulk cursor .{target.attr} is reset to "
                                f"a constant in {func.name}; only "
                                f"constructors and crash/teardown paths "
                                f"may reinitialize run cursors")


@register
class CursorOrderRule(_TypestateRule):
    """No cross-rank cursor aliasing: completed <= serviced <= issued
    <= total is maintained by independent advancement, never by
    assigning one cursor from another."""

    id = "typestate-cursor-order"
    severity = Severity.ERROR
    description = ("a bulk-run cursor is assigned from a different-rank "
                   "cursor of the same run (e.g. serviced = completed); "
                   "the invariant completed <= serviced <= issued <= "
                   "total is kept by advancing each cursor "
                   "independently, not by aliasing")
    rationale = (
        "The four cursors are independent progress frontiers; their "
        "pairwise differences are load-bearing (fence coverage counts "
        "serviced - completed in-flight blocks, the queue entry "
        "occupies issued - serviced slots).  Assigning one cursor from "
        "another collapses a frontier: serviced = completed stalls "
        "service accounting so fences under-cover in-flight blocks, "
        "and issued = total fakes full admission so unadmitted blocks "
        "are never queued.  This is exactly the shape of the seeded "
        "cursor-ordering bug pinned in tests/analysis/.")
    example_bad = (
        "request.serviced = request.completed   # frontier collapsed")
    example_good = (
        "request.serviced += 1                  # frontier advanced")

    def check(self, module: ModuleContext, project: "ProjectIndex",
              config: "LintConfig") -> Iterator[Finding]:
        if not self.in_scope(module, config):
            return
        for func in _functions(module.tree):
            if func.name in _RESET_CONTEXTS:
                continue
            bases = _cursor_bases(func)
            for node in _shallow(func):
                if not isinstance(node, (ast.Assign, ast.AnnAssign,
                                         ast.AugAssign)):
                    continue
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                if node.value is None:
                    continue
                for raw in targets:
                    target = _cursor_target(raw)
                    if target is None:
                        continue
                    base = _base_text(target.value)
                    if not _is_carrier(bases, base):
                        continue
                    for read in ast.walk(node.value):
                        if (isinstance(read, ast.Attribute)
                                and read.attr in _CURSOR_RANK
                                and read.attr != target.attr
                                and _base_text(read.value) == base):
                            relation = (
                                "lower-rank"
                                if (_CURSOR_RANK[read.attr]
                                    < _CURSOR_RANK[target.attr])
                                else "higher-rank")
                            yield self.finding(
                                module, node,
                                f"bulk cursor .{target.attr} assigned "
                                f"from {relation} cursor .{read.attr} "
                                f"of the same run in {func.name}; "
                                f"cursors advance independently "
                                f"(completed <= serviced <= issued <= "
                                f"total)")


@register
class ParallelArrayRule(_TypestateRule):
    """Bulk side arrays keep slot i == block i."""

    id = "typestate-parallel-arrays"
    severity = Severity.ERROR
    description = ("a bulk run's parallel array is mutated against its "
                   "discipline: block_data is preallocated (slot-store "
                   "only, never grown) and admit_times is append-only "
                   "(one entry per admitted block, never slot-stored); "
                   "whole-array reassignment is reserved to "
                   "construction and teardown")
    rationale = (
        "MemoryRequest.bulk keeps three side arrays congruent with the "
        "cursor frontiers: block_data[i] is block i's payload "
        "(preallocated to total), admit_times[i] is block i's "
        "admission cycle (appended exactly at admission), and fences "
        "holds per-fence coverage pairs.  Growing the preallocated "
        "array or slot-storing into the grown one shifts every later "
        "block's payload or latency attribution by one — the kind of "
        "off-by-one that only surfaces as a wrong recovery image or a "
        "skewed latency histogram long after the fact.")
    example_bad = (
        "request.block_data.append(data)        # grows a fixed array\n"
        "request.admit_times[index] = now       # slot-store in a grown one")
    example_good = (
        "request.block_data[request.issued] = data  # slot i = block i\n"
        "request.admit_times.append(now)            # grows with admission")

    def check(self, module: ModuleContext, project: "ProjectIndex",
              config: "LintConfig") -> Iterator[Finding]:
        if not self.in_scope(module, config):
            return
        attach_parents(module.tree)
        for func in _functions(module.tree):
            reset = func.name in _RESET_CONTEXTS
            for node in _shallow(func):
                if isinstance(node, ast.Call):
                    yield from self._check_grow(module, func, node)
                elif isinstance(node, (ast.Assign, ast.AnnAssign,
                                       ast.AugAssign)):
                    yield from self._check_store(module, func, node,
                                                 reset)

    @staticmethod
    def _array_name(node: ast.AST) -> Optional[str]:
        """``X.block_data`` or an alias local named ``block_data``."""
        if isinstance(node, ast.Attribute) and node.attr in _RUN_ARRAYS:
            return node.attr
        if isinstance(node, ast.Name) and node.id in _RUN_ARRAYS:
            return node.id
        return None

    def _check_grow(self, module: ModuleContext, func: ast.FunctionDef,
                    call: ast.Call) -> Iterator[Finding]:
        func_node = call.func
        if not (isinstance(func_node, ast.Attribute)
                and func_node.attr in _GROWERS):
            return
        array = self._array_name(func_node.value)
        if array in _FIXED_ARRAYS:
            yield self.finding(
                module, call,
                f".{func_node.attr}() grows {array} in {func.name}; "
                f"block_data is preallocated to the run's total so slot "
                f"i stays block i — store by subscript instead")

    def _check_store(self, module: ModuleContext, func: ast.FunctionDef,
                     node: ast.stmt, reset: bool) -> Iterator[Finding]:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if isinstance(target, ast.Subscript):
                array = self._array_name(target.value)
                if array in _GROWN_ARRAYS:
                    yield self.finding(
                        module, node,
                        f"slot-store into {array} in {func.name}; "
                        f"admit_times grows by append exactly once per "
                        f"admitted block — slot-stores break the "
                        f"slot-i-is-block-i congruence")
            elif (isinstance(target, ast.Attribute)
                    and target.attr in _RUN_ARRAYS and not reset):
                yield self.finding(
                    module, node,
                    f"bulk side array {target.attr} reassigned "
                    f"wholesale in {func.name}; parallel arrays are "
                    f"created by MemoryRequest.bulk and live for the "
                    f"run — rebind only in construction or teardown")


@register
class GrowTailOnlyRule(_TypestateRule):
    """Admission results must be consumed: a refused grow_bulk/
    try_enqueue_bulk demands the position-exact single fallback."""

    id = "typestate-grow-tail-only"
    severity = Severity.ERROR
    description = ("the result of grow_bulk()/try_enqueue_bulk() is "
                   "discarded; a refusal (not the queue tail, or full) "
                   "must be handled by admitting the block as a "
                   "position-exact single request, otherwise the block "
                   "is silently dropped")
    rationale = (
        "The tail-merge contract is what makes a bulk run semantically "
        "identical to its per-block expansion: grow_bulk refuses when "
        "another entry holds the queue tail, and the caller then "
        "admits that block as an ordinary single request at exactly "
        "the FIFO position it would have occupied.  Ignoring the "
        "return value breaks the contract in the worst possible way — "
        "the block is neither queued in the run nor as a single, so "
        "its write simply never happens and recovery reads stale "
        "data.")
    example_bad = (
        "queue.grow_bulk(request)               # refusal dropped")
    example_good = (
        "if not queue.grow_bulk(request):\n"
        "    self._submit_single(request.block_addr(index))  # fallback")

    def check(self, module: ModuleContext, project: "ProjectIndex",
              config: "LintConfig") -> Iterator[Finding]:
        if not self.in_scope(module, config):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Expr):
                continue
            call = node.value
            if not isinstance(call, ast.Call):
                continue
            name = (call.func.attr
                    if isinstance(call.func, ast.Attribute)
                    else call.func.id if isinstance(call.func, ast.Name)
                    else None)
            if name in _ADMITTERS:
                yield self.finding(
                    module, node,
                    f"{name}() result discarded; on refusal the caller "
                    f"must admit the block as a position-exact single "
                    f"request (tail-merge order-exactness contract)")
