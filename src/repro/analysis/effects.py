"""Per-function write-effect events: the static crash surface.

ThyNVM's crash-consistency argument is an *ordering* argument: data
writes must be durable before the BTT/PTT metadata that makes them
visible commits (paper §4.4).  This module classifies the protocol
sources' persist, fence and commit points, which the crash-site
taxonomy (:mod:`repro.fuzz.sites`) anchors its probe kinds to.  Every
function, method, nested def and lambda in the scanned modules becomes
a :class:`FunctionInfo` holding its classified call sites and
``committed_meta`` stores as a source-ordered stream of :class:`Event`
records.

The classification is conservative: an unknown device kind counts as
a durable write.  The property test in
``tests/property/test_effect_graph_runtime.py`` checks the other
direction at runtime: effects observed in instrumented runs must be a
subset of what this classifier predicts.

Classification table (by callee terminal name):

========================  ==========================================
``_issue_write``          durable write (``DATA_WRITE``), or
``_issue_fire_and_forget``  ``VOLATILE_WRITE`` when the device-kind
                          argument is literally ``DeviceKind.DRAM``;
                          a fire-and-forget with literal
                          ``is_write=False`` is a read — no effect
``write_block``           durable write (device steered dynamically)
``flush_dirty``           durable write (boundary cache flush)
``_table_persist_jobs``   ``TABLE_PERSIST``
``fence_writes`` /        ``FENCE`` — an asynchronous write-queue
``persist_barrier``         drain barrier
``msync``                 ``FENCE`` — store-surface durability flush
                            (mmap msync; synchronous, no callback)
``self.committed_meta =`` ``COMMIT`` (outside ``__init__``)
``submit_bulk`` /         ``BULK_WRITE`` — one batched run of blocks
``bulk_admit_next`` /       entering a device queue; ``VOLATILE_WRITE``
``_issue_bulk_write_traffic``  when the kind is literally DRAM
``grow_bulk`` /           ``BULK_WRITE`` — queue-side admission of one
``try_enqueue_bulk``        more block of a run (tail-merge path)
``submit`` /              unclassified (see below)
``submit_or_wait``
========================  ==========================================

Raw ``memctrl.submit`` and its retrying form ``submit_or_wait`` are
intentionally *not* classified: the commit record itself is written
through ``submit_or_wait`` after the fence, and is anchored by its
``committed_meta`` store instead.  The bulk surface *is* classified,
conservatively: a bulk submission whose device kind is not literally
DRAM counts as durable even when the run is a read (reads and writes
share ``submit_bulk``/``bulk_admit_next``), in the same
over-approximating direction as an unknown device kind.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .context import ModuleContext

_COMMIT_ATTRIBUTE = "committed_meta"

# Callees whose device-kind argument sits at position 0 / keyword "kind".
_KIND_ARG_WRITERS = frozenset({"_issue_write", "_issue_fire_and_forget"})
_PLAIN_WRITERS = frozenset({"write_block", "flush_dirty"})
# Bulk-run surface (the batched array-core).
_BULK_KIND_WRITERS = frozenset({"submit_bulk", "bulk_admit_next",
                                "_issue_bulk_write_traffic"})
# Queue-side admission of run blocks: device kind unknown at this
# level, so always conservatively durable.
_BULK_ADMITTERS = frozenset({"grow_bulk", "try_enqueue_bulk"})
_TABLE_PERSISTERS = frozenset({"_table_persist_jobs"})
# Store-surface durability flushes (mmap msync) are fence-like: they
# order serviced contents into the backing medium.
_FENCES = frozenset({"fence_writes", "persist_barrier", "msync"})


class Effect(enum.Enum):
    """Protocol-level classification of one call site / assignment."""

    DATA_WRITE = "data-write"          # durable (NVM or unknown) write
    VOLATILE_WRITE = "volatile-write"  # literal DeviceKind.DRAM write
    BULK_WRITE = "bulk-write"          # batched run of durable writes
    TABLE_PERSIST = "table-persist"    # BTT/PTT persist job issue
    COMMIT = "commit"                  # committed_meta assignment
    FENCE = "fence"                    # write-queue drain / store flush


@dataclass
class Event:
    """One classified point inside a function body, source order."""

    node: ast.AST
    effect: Effect

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 1)


@dataclass
class FunctionInfo:
    """One function, method, nested def or lambda in the scanned tree."""

    qualname: str               # "<relpath>::Outer.inner"
    name: str                   # terminal name ("<lambda:LINE:COL>" too)
    events: List[Event] = field(default_factory=list)


def _terminal_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_dram(node: Optional[ast.AST]) -> bool:
    """True for the literal ``DeviceKind.DRAM``; anything else is unknown."""
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "DeviceKind" and node.attr == "DRAM")


def _call_argument(call: ast.Call, position: int,
                   keyword: str) -> Optional[ast.AST]:
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    if position < len(call.args):
        arg = call.args[position]
        if not isinstance(arg, ast.Starred):
            return arg
    return None


def classify_call(call: ast.Call) -> Optional[Effect]:
    """The effect of one call site; None when unclassified."""
    name = _terminal_name(call.func)
    if name in _KIND_ARG_WRITERS or name in _BULK_KIND_WRITERS:
        if name == "_issue_fire_and_forget":
            is_write = _call_argument(call, 2, "is_write")
            if isinstance(is_write, ast.Constant) and is_write.value is False:
                return None              # a read probe, not a write
        if _is_dram(_call_argument(call, 0, "kind")):
            return Effect.VOLATILE_WRITE
        # NVM or unknown: durable.
        if name in _BULK_KIND_WRITERS:
            return Effect.BULK_WRITE
        return Effect.DATA_WRITE
    if name in _BULK_ADMITTERS:
        return Effect.BULK_WRITE
    if name in _PLAIN_WRITERS:
        return Effect.DATA_WRITE
    if name in _TABLE_PERSISTERS:
        return Effect.TABLE_PERSIST
    if name in _FENCES:
        return Effect.FENCE
    return None


class _ModuleExtractor:
    """Walk one module and produce its FunctionInfos."""

    def __init__(self, module: ModuleContext) -> None:
        self.module = module
        self.functions: List[FunctionInfo] = []

    def run(self) -> None:
        self._collect(self.module.tree, (), None)

    def _function(self, scope: Tuple[str, ...]) -> FunctionInfo:
        info = FunctionInfo(qualname=f"{self.module.relpath}::"
                                     f"{'.'.join(scope)}",
                            name=scope[-1])
        self.functions.append(info)
        return info

    def _collect(self, node: ast.AST, scope: Tuple[str, ...],
                 current: Optional[FunctionInfo]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._collect(child, scope + (child.name,), None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
                self._collect(child, inner, self._function(inner))
            elif isinstance(child, ast.Lambda):
                marker = f"<lambda:{child.lineno}:{child.col_offset}>"
                inner = scope + (marker,)
                self._collect(child, inner, self._function(inner))
            else:
                if current is not None:
                    self._record(child, current)
                self._collect(child, scope, current)

    def _record(self, node: ast.AST, current: FunctionInfo) -> None:
        if isinstance(node, ast.Call):
            effect = classify_call(node)
            if effect is not None:
                current.events.append(Event(node=node, effect=effect))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                self._record_store(target, node, current)

    def _record_store(self, target: ast.AST, stmt: ast.AST,
                      current: FunctionInfo) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_store(element, stmt, current)
        elif (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr == _COMMIT_ATTRIBUTE
                and current.name != "__init__"):
            current.events.append(Event(node=stmt, effect=Effect.COMMIT))


class EffectGraph:
    """Every scanned function's classified events, keyed by qualname."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}

    @classmethod
    def build(cls, modules: Sequence[ModuleContext]) -> "EffectGraph":
        graph = cls()
        for module in modules:
            extractor = _ModuleExtractor(module)
            extractor.run()
            for info in extractor.functions:
                graph.functions[info.qualname] = info
        return graph
