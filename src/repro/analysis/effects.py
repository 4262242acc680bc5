"""Interprocedural write-effect graph for the persist-order rules.

ThyNVM's crash-consistency argument is an *ordering* argument: data
writes must be durable before the BTT/PTT metadata that makes them
visible commits (paper §4.4), and committed metadata must never be
mutated outside a checkpoint or recovery path.  This module builds the
static model those rules reason over:

* every function/lambda in the scanned tree becomes a
  :class:`FunctionInfo` holding a source-ordered stream of
  :class:`Event` records — write-effect call sites classified by
  :class:`Effect`, plus call/callback edges to other functions;
* :class:`EffectGraph` links the per-module streams into a project-wide
  call graph (direct calls, deferred completion callbacks, and
  constructor-stored callbacks such as ``CheckpointRun(..., on_commit)``
  resolved at their ``self.on_commit()`` invocation sites), then runs
  two fixpoints: per-function *transfer summaries* for the boolean
  "writes outstanding since the last fence callback" state, and joined
  *entry states* propagated from every call/registration site.

The model is deliberately conservative in the direction the rules need:
an unknown device kind counts as a durable write, a name that resolves
to several functions ORs their summaries, and a function with no known
callers is assumed to start fenced (the rules check *visible* ordering
violations, not all imaginable call sequences).  The property test in
``tests/property/test_effect_graph_runtime.py`` checks the other
direction at runtime: effects observed in instrumented runs must be a
subset of what this graph predicts.

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
``fence_writes`` /        ``FENCE`` — the *callback* starts fenced;
``persist_barrier``         the caller's own continuation does not
                            (the drain is asynchronous)
``msync``                 ``FENCE`` — store-surface durability flush
                            (mmap msync; synchronous, no callback)
``btt.insert`` etc.       ``TABLE_MUTATE`` (structural vs bookkeeping)
``engine.schedule[_at]``  ``SCHEDULE``
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
through ``submit_or_wait`` after the fence, and modelling either as a
data write would make every commit look self-racing.  The bulk
surface *is* classified, conservatively: a bulk submission whose device
kind is not literally DRAM counts as durable even when the run is a
read (reads and writes share ``submit_bulk``/``bulk_admit_next``), in
the same over-approximating direction as an unknown device kind.
``BULK_WRITE`` events carry the run extent expression in their detail
(``submit_bulk[request.total]`` style) so downstream consumers — the
fuzz site taxonomy and the verify machines — can anchor per-block
crash sites inside a run.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Set, Tuple)

from .context import ModuleContext

COMMIT_ATTRIBUTE = "committed_meta"

# callee name -> positional index of the device-kind argument
_KIND_ARG_WRITERS: Dict[str, int] = {
    "_issue_write": 0,
    "_issue_fire_and_forget": 0,
}
_KIND_KEYWORDS: Dict[str, str] = {
    "_issue_write": "kind",
    "_issue_fire_and_forget": "kind",
}
_PLAIN_WRITERS = frozenset({"write_block", "flush_dirty"})
# Bulk-run surface (PR 8's batched array-core).  Kind-aware names take
# the device-kind argument at position 0 / keyword "kind"; the run
# extent argument (total block count) feeds the event detail.
_BULK_KIND_WRITERS: Dict[str, int] = {
    "submit_bulk": 0,
    "bulk_admit_next": 0,
    "_issue_bulk_write_traffic": 0,
}
_BULK_EXTENT_ARGS: Dict[str, Tuple[int, str]] = {
    "submit_bulk": (1, "request"),
    "bulk_admit_next": (1, "request"),
    "_issue_bulk_write_traffic": (3, "count"),
    "grow_bulk": (0, "request"),
    "try_enqueue_bulk": (0, "request"),
}
# Queue-side admission of run blocks: device kind unknown at this
# level, so always conservatively durable.
_BULK_ADMITTERS = frozenset({"grow_bulk", "try_enqueue_bulk"})
_TABLE_PERSISTERS = frozenset({"_table_persist_jobs"})
_FENCES = frozenset({"fence_writes", "persist_barrier"})
# Store-surface durability flushes (mmap msync): fence-like — they
# order serviced contents into the backing medium.  Synchronous calls
# with no callback, so they anchor the FENCE surface for the fuzz
# taxonomy without altering any caller's outstanding-write state.
_STORE_SYNCS = frozenset({"msync"})
_SCHEDULERS = frozenset({"schedule", "schedule_at"})
_TABLE_NAMES = frozenset({"btt", "ptt"})
STRUCTURAL_MUTATORS = frozenset({"insert", "remove", "create"})
BOOKKEEPING_MUTATORS = frozenset({"mark_dirty", "clear_dirty"})
_TABLE_MUTATORS = STRUCTURAL_MUTATORS | BOOKKEEPING_MUTATORS


class Effect(enum.Enum):
    """Protocol-level classification of one call site / assignment."""

    DATA_WRITE = "data-write"          # durable (NVM or unknown) write
    VOLATILE_WRITE = "volatile-write"  # literal DeviceKind.DRAM write
    BULK_WRITE = "bulk-write"          # batched run of durable writes
    TABLE_PERSIST = "table-persist"    # BTT/PTT persist job issue
    TABLE_MUTATE = "table-mutate"      # in-DRAM BTT/PTT mutation
    COMMIT = "commit"                  # committed_meta assignment
    FENCE = "fence"                    # async write-queue drain barrier
    SCHEDULE = "schedule"              # engine.schedule / schedule_at


@dataclass(frozen=True)
class CallbackRef:
    """A deferred-handler argument before cross-module resolution."""

    target: str                 # terminal name, or a lambda's qualname
    is_lambda: bool = False
    via_self: bool = False      # written as self.<target>
    position: Optional[int] = None   # positional index at the call site
    keyword: Optional[str] = None    # keyword name at the call site


@dataclass
class Event:
    """One effect-relevant point inside a function body, source order."""

    node: ast.AST
    effect: Optional[Effect] = None
    detail: str = ""            # mutator name for TABLE_MUTATE, etc.
    callee: Optional[str] = None       # terminal name of the called func
    bare_call: bool = False            # func was a bare Name (ctor cand.)
    via_self: bool = False             # call receiver is `self`
    callback_refs: Tuple[CallbackRef, ...] = ()
    # Filled in by EffectGraph._link():
    callees: Tuple[str, ...] = ()      # synchronous targets (qualnames)
    deferred: Tuple[str, ...] = ()     # handlers that run later

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 1)


@dataclass
class FunctionInfo:
    """One function, method, nested def or lambda in the scanned tree."""

    qualname: str               # "<relpath>::Outer.inner"
    name: str                   # terminal name ("<lambda:LINE:COL>" too)
    module: str                 # ModuleContext.relpath
    class_name: Optional[str]
    node: ast.AST               # FunctionDef / AsyncFunctionDef / Lambda
    events: List[Event] = field(default_factory=list)
    written_attrs: Set[str] = field(default_factory=set)


@dataclass
class ClassInfo:
    """Constructor facts needed to resolve stored-callback parameters."""

    name: str
    module: str
    init_params: Tuple[str, ...] = ()       # positional, after self
    stored_params: Dict[str, str] = field(default_factory=dict)  # attr->param
    invoked_attrs: Set[str] = field(default_factory=set)  # self.<attr>() seen


def _terminal_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _receiver_name(func: ast.AST) -> Optional[str]:
    """Terminal name of the receiver in ``recv.method(...)``."""
    if isinstance(func, ast.Attribute):
        return _terminal_name(func.value)
    return None


def _device_kind(node: Optional[ast.AST]) -> Optional[str]:
    """``DeviceKind.DRAM`` -> "DRAM"; anything else -> None (unknown)."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "DeviceKind"):
        return node.attr
    return None


def _call_argument(call: ast.Call, position: int,
                   keyword: Optional[str]) -> Optional[ast.AST]:
    if keyword is not None:
        for kw in call.keywords:
            if kw.arg == keyword:
                return kw.value
    if position < len(call.args):
        arg = call.args[position]
        if not isinstance(arg, ast.Starred):
            return arg
    return None


def _is_literal(node: Optional[ast.AST], value: object) -> bool:
    return isinstance(node, ast.Constant) and node.value is value


def _bulk_extent(call: ast.Call, name: str) -> str:
    """Source text of the run-extent argument, "" when unavailable."""
    position, keyword = _BULK_EXTENT_ARGS[name]
    arg = _call_argument(call, position, keyword)
    if arg is None:
        return ""
    try:
        return ast.unparse(arg)
    except Exception:                    # pragma: no cover - defensive
        return ""


def classify_call(call: ast.Call) -> Tuple[Optional[Effect], str]:
    """(effect, detail) for one call site; (None, "") when unclassified."""
    name = _terminal_name(call.func)
    if name is None:
        return None, ""
    if name in _KIND_ARG_WRITERS:
        if name == "_issue_fire_and_forget" and _is_literal(
                _call_argument(call, 2, "is_write"), False):
            return None, ""              # a read probe, not a write
        kind = _call_argument(call, _KIND_ARG_WRITERS[name],
                              _KIND_KEYWORDS[name])
        if _device_kind(kind) == "DRAM":
            return Effect.VOLATILE_WRITE, name
        return Effect.DATA_WRITE, name   # NVM or unknown: durable
    if name in _BULK_KIND_WRITERS:
        kind = _call_argument(call, _BULK_KIND_WRITERS[name], "kind")
        extent = _bulk_extent(call, name)
        detail = f"{name}[{extent}]" if extent else name
        if _device_kind(kind) == "DRAM":
            return Effect.VOLATILE_WRITE, detail
        return Effect.BULK_WRITE, detail  # NVM or unknown: durable
    if name in _BULK_ADMITTERS:
        extent = _bulk_extent(call, name)
        detail = f"{name}[{extent}]" if extent else name
        return Effect.BULK_WRITE, detail
    if name in _PLAIN_WRITERS:
        return Effect.DATA_WRITE, name
    if name in _TABLE_PERSISTERS:
        return Effect.TABLE_PERSIST, name
    if name in _FENCES:
        return Effect.FENCE, name
    if name in _STORE_SYNCS:
        return Effect.FENCE, name
    if name in _SCHEDULERS and _receiver_name(call.func) == "engine":
        return Effect.SCHEDULE, name
    if name in _TABLE_MUTATORS and _receiver_name(call.func) in _TABLE_NAMES:
        return Effect.TABLE_MUTATE, name
    return None, ""


# --- per-module extraction ----------------------------------------------


class _ModuleExtractor:
    """Walk one module; produce FunctionInfos and ClassInfos."""

    def __init__(self, module: ModuleContext) -> None:
        self.module = module
        self.functions: List[FunctionInfo] = []
        self.classes: List[ClassInfo] = []

    def run(self) -> None:
        self._collect(self.module.tree, (), None, None)

    def _qual(self, scope: Tuple[str, ...]) -> str:
        return f"{self.module.relpath}::{'.'.join(scope)}"

    def _collect(self, node: ast.AST, scope: Tuple[str, ...],
                 cls: Optional[str], current: Optional[FunctionInfo]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._register_class(child)
                self._collect(child, scope + (child.name,), child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
                info = FunctionInfo(qualname=self._qual(inner),
                                    name=child.name, module=self.module.relpath,
                                    class_name=cls, node=child)
                self.functions.append(info)
                self._collect(child, inner, cls, info)
            elif isinstance(child, ast.Lambda):
                marker = f"<lambda:{child.lineno}:{child.col_offset}>"
                inner = scope + (marker,)
                info = FunctionInfo(qualname=self._qual(inner), name=marker,
                                    module=self.module.relpath,
                                    class_name=cls, node=child)
                self.functions.append(info)
                self._collect(child, inner, cls, info)
            else:
                if current is not None:
                    self._record(child, scope, current)
                self._collect(child, scope, cls, current)

    # -- recording one statement/expression inside `current` -------------

    def _record(self, node: ast.AST, scope: Tuple[str, ...],
                current: FunctionInfo) -> None:
        if isinstance(node, ast.Call):
            current.events.append(self._call_event(node, scope))
            mutator = _terminal_name(node.func)
            if (mutator in _TABLE_MUTATORS
                    and isinstance(node.func, ast.Attribute)
                    and self._self_attr(node.func.value) is not None):
                current.written_attrs.add(self._self_attr(node.func.value))
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
            return
        if isinstance(target, ast.Subscript):
            attr = self._self_attr(target.value)
            if attr is not None:
                current.written_attrs.add(attr)
            return
        if not isinstance(target, ast.Attribute):
            return
        attr = self._self_attr(target)
        if attr is None:
            return
        current.written_attrs.add(attr)
        if attr == COMMIT_ATTRIBUTE and current.name != "__init__":
            current.events.append(Event(node=stmt, effect=Effect.COMMIT,
                                        detail=attr))

    @staticmethod
    def _self_attr(node: ast.AST) -> Optional[str]:
        """``self.<attr>`` -> attr name (one level only)."""
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return node.attr
        return None

    def _call_event(self, call: ast.Call, scope: Tuple[str, ...]) -> Event:
        effect, detail = classify_call(call)
        func = call.func
        callee = _terminal_name(func)
        via_self = (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self")
        refs: List[CallbackRef] = []
        for position, arg in enumerate(call.args):
            ref = self._callback_ref(arg, scope, position=position)
            if ref is not None:
                refs.append(ref)
        for kw in call.keywords:
            if kw.arg is None:
                continue
            ref = self._callback_ref(kw.value, scope, keyword=kw.arg)
            if ref is not None:
                refs.append(ref)
        return Event(node=call, effect=effect, detail=detail,
                     callee=callee, bare_call=isinstance(func, ast.Name),
                     via_self=via_self, callback_refs=tuple(refs))

    def _callback_ref(self, arg: ast.AST, scope: Tuple[str, ...],
                      position: Optional[int] = None,
                      keyword: Optional[str] = None) -> Optional[CallbackRef]:
        if isinstance(arg, ast.Lambda):
            marker = f"<lambda:{arg.lineno}:{arg.col_offset}>"
            return CallbackRef(target=self._qual(scope + (marker,)),
                               is_lambda=True, position=position,
                               keyword=keyword)
        if isinstance(arg, ast.Name):
            return CallbackRef(target=arg.id, position=position,
                               keyword=keyword)
        if isinstance(arg, ast.Attribute):
            name = arg.attr
            via_self = (isinstance(arg.value, ast.Name)
                        and arg.value.id == "self")
            if not via_self and _device_kind(arg) is not None:
                return None              # DeviceKind.NVM etc. is data
            return CallbackRef(target=name, via_self=via_self,
                               position=position, keyword=keyword)
        return None

    def _register_class(self, node: ast.ClassDef) -> None:
        info = ClassInfo(name=node.name, module=self.module.relpath)
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name == "__init__":
                info.init_params = tuple(
                    a.arg for a in stmt.args.args if a.arg != "self")
                params = set(info.init_params)
                for sub in ast.walk(stmt):
                    if not isinstance(sub, ast.Assign):
                        continue
                    if not isinstance(sub.value, ast.Name):
                        continue
                    if sub.value.id not in params:
                        continue
                    for target in sub.targets:
                        attr = self._self_attr(target)
                        if attr is not None:
                            info.stored_params[attr] = sub.value.id
            for sub in ast.walk(stmt):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and isinstance(sub.func.value, ast.Name)
                        and sub.func.value.id == "self"):
                    info.invoked_attrs.add(sub.func.attr)
        self.classes.append(info)


# --- the project-wide graph ---------------------------------------------


@dataclass(frozen=True)
class ScheduleSite:
    """One ``engine.schedule``/``schedule_at`` call with its handlers."""

    function: str               # qualname of the scheduling function
    module: str
    line: int
    col: int
    handlers: Tuple[str, ...]   # resolved handler qualnames (maybe empty)


class EffectGraph:
    """Linked, summarised effect graph over every scanned module."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, List[ClassInfo]] = {}
        self._by_name: Dict[str, List[str]] = {}
        self._by_module_name: Dict[Tuple[str, str], List[str]] = {}
        # registered constructor-stored callbacks: (class, param) -> quals
        self._registered: Dict[Tuple[str, str], Set[str]] = {}
        # (class, param) pairs whose args defer to the ctor site instead
        self._transfer: Dict[str, Tuple[bool, bool]] = {}
        self.entry_state: Dict[str, bool] = {}
        self._footprints: Dict[str, FrozenSet[Tuple[str, str]]] = {}
        self._edges: Dict[str, FrozenSet[str]] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, modules: Sequence[ModuleContext]) -> "EffectGraph":
        graph = cls()
        for module in modules:
            extractor = _ModuleExtractor(module)
            extractor.run()
            for info in extractor.functions:
                graph.functions[info.qualname] = info
            for class_info in extractor.classes:
                graph.classes.setdefault(class_info.name, []).append(class_info)
        graph._index()
        graph._link()
        graph._summarise()
        graph._propagate_entries()
        graph._compute_footprints()
        return graph

    def _index(self) -> None:
        for qualname, info in sorted(self.functions.items()):
            if info.name.startswith("<lambda"):
                continue
            self._by_name.setdefault(info.name, []).append(qualname)
            key = (info.module, info.name)
            self._by_module_name.setdefault(key, []).append(qualname)

    def _resolve(self, ref_name: str, is_lambda: bool, via_self: bool,
                 caller: FunctionInfo) -> Tuple[str, ...]:
        """Candidate qualnames for one name at one site (maybe empty)."""
        if is_lambda:
            return (ref_name,) if ref_name in self.functions else ()
        if via_self and caller.class_name is not None:
            prefix = f"{caller.module}::{caller.class_name}."
            scoped = [q for q in self._by_name.get(ref_name, ())
                      if q.startswith(prefix)]
            if scoped:
                return tuple(scoped)
            return tuple(self._by_name.get(ref_name, ()))
        # Bare names: nested defs under the caller first, then module
        # scope; cross-module resolution only through attribute calls.
        nested = f"{caller.qualname}.{ref_name}"
        if nested in self.functions:
            return (nested,)
        local = self._by_module_name.get((caller.module, ref_name), ())
        if local:
            return tuple(local)
        if via_self:
            return tuple(self._by_name.get(ref_name, ()))
        return ()

    def _link(self) -> None:
        # Pass A: collect constructor-stored callback registrations.
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            for event in info.events:
                if not event.bare_call or event.callee not in self.classes:
                    continue
                for class_info in self.classes[event.callee]:
                    self._register_ctor_callbacks(event, class_info, info)
        # Pass B: resolve every event's synchronous and deferred edges.
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            for event in info.events:
                self._link_event(event, info)
        self._edges = {
            qualname: frozenset(edge
                                for event in info.events
                                for edge in event.callees + event.deferred)
            for qualname, info in self.functions.items()
        }

    def _register_ctor_callbacks(self, event: Event, class_info: ClassInfo,
                                 caller: FunctionInfo) -> None:
        for ref in event.callback_refs:
            param: Optional[str] = ref.keyword
            if param is None and ref.position is not None:
                if ref.position < len(class_info.init_params):
                    param = class_info.init_params[ref.position]
            if param is None:
                continue
            stored_attr = next((attr for attr, p
                                in class_info.stored_params.items()
                                if p == param), None)
            if stored_attr is None or stored_attr not in class_info.invoked_attrs:
                continue                 # not stored-and-invoked: ctor defers
            for target in self._resolve(ref.target, ref.is_lambda,
                                        ref.via_self, caller):
                self._registered.setdefault(
                    (class_info.name, param), set()).add(target)

    def _link_event(self, event: Event, caller: FunctionInfo) -> None:
        callees: List[str] = []
        deferred: List[str] = []
        handled_refs: Set[CallbackRef] = set()
        if event.bare_call and event.callee in self.classes:
            # Constructor call: stored-and-invoked callback params are
            # linked from their invocation sites, not from here.
            for class_info in self.classes[event.callee]:
                for ref in event.callback_refs:
                    param = ref.keyword
                    if param is None and ref.position is not None:
                        if ref.position < len(class_info.init_params):
                            param = class_info.init_params[ref.position]
                    if param is None:
                        continue
                    attr = next((a for a, p in class_info.stored_params.items()
                                 if p == param), None)
                    if attr is not None and attr in class_info.invoked_attrs:
                        handled_refs.add(ref)
        elif event.via_self and event.callee is not None:
            # self.<attr>() where <attr> stores a ctor param: this is the
            # invocation site of every registered callback.
            if caller.class_name is not None:
                for class_info in self.classes.get(caller.class_name, ()):
                    param = class_info.stored_params.get(event.callee)
                    if param is None:
                        continue
                    callees.extend(sorted(self._registered.get(
                        (class_info.name, param), ())))
        if not callees and event.callee is not None and event.effect is None:
            callees.extend(self._resolve(event.callee, False,
                                         event.via_self, caller))
        for ref in event.callback_refs:
            if ref in handled_refs:
                continue
            deferred.extend(self._resolve(ref.target, ref.is_lambda,
                                          ref.via_self, caller))
        event.callees = tuple(dict.fromkeys(callees))
        event.deferred = tuple(dict.fromkeys(deferred))

    # -- dataflow ---------------------------------------------------------

    def scan(self, qualname: str, entry: bool,
             on_event: Optional[Callable[[Event, bool], None]] = None,
             ) -> bool:
        """Walk one function's events with the unfenced-writes state.

        ``on_event(event, state_before)`` observes every event;
        returns the exit state.  The state means "a durable data or
        table-persist write may still be queued, unfenced".
        """
        info = self.functions[qualname]
        state = entry
        for event in info.events:
            if on_event is not None:
                on_event(event, state)
            if event.effect in (Effect.DATA_WRITE, Effect.BULK_WRITE,
                                Effect.TABLE_PERSIST):
                state = True
            elif event.effect is None:
                for callee in event.callees:
                    transfer = self._transfer.get(callee)
                    if transfer is not None and transfer[1 if state else 0]:
                        state = True
                        break
        return state

    def callback_entry(self, event: Event, state_before: bool) -> bool:
        """Entry state handed to ``event``'s deferred callbacks."""
        if event.effect == Effect.FENCE:
            return False                 # fires only after the drain
        if event.effect in (Effect.DATA_WRITE, Effect.BULK_WRITE,
                            Effect.TABLE_PERSIST):
            return True
        return state_before

    def _summarise(self) -> None:
        self._transfer = {qualname: (False, False)
                          for qualname in self.functions}
        changed = True
        while changed:
            changed = False
            for qualname in sorted(self.functions):
                new = (self.scan(qualname, False), self.scan(qualname, True))
                if new != self._transfer[qualname]:
                    self._transfer[qualname] = new
                    changed = True

    def transfer(self, qualname: str, entry: bool) -> bool:
        return self._transfer[qualname][1 if entry else 0]

    def _propagate_entries(self) -> None:
        self.entry_state = {qualname: False for qualname in self.functions}
        changed = True
        while changed:
            changed = False
            for qualname in sorted(self.functions):

                def feed(event: Event, state_before: bool) -> None:
                    nonlocal changed
                    targets = list(event.deferred)
                    entry = self.callback_entry(event, state_before)
                    for target in event.callees:
                        if not self.entry_state.get(target, True) and state_before:
                            self.entry_state[target] = True
                            changed = True
                    for target in targets:
                        if not self.entry_state.get(target, True) and entry:
                            self.entry_state[target] = True
                            changed = True

                self.scan(qualname, self.entry_state[qualname], feed)

    # -- race footprints --------------------------------------------------

    def _compute_footprints(self) -> None:
        base: Dict[str, Set[Tuple[str, str]]] = {}
        for qualname, info in self.functions.items():
            owner = info.class_name or f"<module:{info.module}>"
            base[qualname] = {(owner, attr) for attr in info.written_attrs}
        changed = True
        while changed:
            changed = False
            for qualname in sorted(self.functions):
                info = self.functions[qualname]
                for event in info.events:
                    for callee in event.callees:   # synchronous only
                        extra = base.get(callee, set()) - base[qualname]
                        if extra:
                            base[qualname].update(extra)
                            changed = True
        self._footprints = {qualname: frozenset(attrs)
                            for qualname, attrs in base.items()}

    def footprint(self, qualname: str) -> FrozenSet[Tuple[str, str]]:
        """(class, attribute) pairs a handler writes, transitively over
        its synchronous callees.  Deferred callbacks run at a later
        cycle and are excluded on purpose."""
        return self._footprints.get(qualname, frozenset())

    def schedule_sites(self) -> List[ScheduleSite]:
        sites: List[ScheduleSite] = []
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            for event in info.events:
                if event.effect != Effect.SCHEDULE:
                    continue
                sites.append(ScheduleSite(
                    function=qualname, module=info.module,
                    line=event.line,
                    col=getattr(event.node, "col_offset", 0),
                    handlers=event.deferred))
        return sites

    def reaches(self, source: str, target: str) -> bool:
        """True when ``target`` is reachable from ``source`` through any
        mix of synchronous calls, deferred callbacks or scheduling —
        i.e. the pair is explicitly sequenced by the program."""
        seen: Set[str] = set()
        frontier = [source]
        while frontier:
            current = frontier.pop()
            if current == target:
                return True
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self._edges.get(current, ()))
        return False
