"""Static extraction of the protocol facts the abstract machines need.

The machines in :mod:`.schemes` are parameterized, not hard-coded: the
safety-relevant decisions of each scheme are *extracted from the
protocol sources* and the machine branches pessimistically over every
fact the extraction cannot pin down.  The facts are:

* the epoch phase graph and the per-block protocol-state graph (the
  same ``PHASE_TRANSITIONS``/``ALLOWED_TRANSITIONS`` literals the lint
  rules check, via :mod:`repro.analysis.graphs`);
* the checkpoint stage list of ``ThyNVMController._plan_checkpoint``
  (order, table vs data stages) and the destination-region expression
  of every data stage — ``other_region(entry.stable_region)`` is the
  safe complement discipline; a constant or a bare ``stable_region``
  read is not;
* the initial-stable-region policy of page promotion
  (``_promote_page``/``_promotion_region``) and page adoption
  (``_adopt_page``) — safe only when derived from where the committed
  copies live, with promotion additionally deferring mixed-region pages;
* the journaling baseline's stage order (log before in-place home
  writes) and which completed stage makes the log durable;
* the shadow baseline's flush target (complement of the committed
  region);
* whether the stop-the-world base class prepends a CPU-state stage
  (it shifts every runtime ``stage-done`` index by one);
* the bounded queue's bulk in-order service discipline — a run's
  ``serviced`` cursor must advance monotonically (``+= 1``) off a FIFO
  ``pending.popleft()``; anything else means a fence can report a run
  drained while a straggler block is still in flight.

Every fact carries a source anchor so counterexamples and extraction
warnings point at the responsible line.  Extraction never imports the
protocol modules — it is a pure AST pass over a source tree, which is
what lets tests run the verifier against a *patched* copy of the tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..findings import Finding, Severity
from ..graphs import (TransitionGraph, extract_assigned_member,
                      extract_enum_members, extract_transition_table)

#: Region names used throughout the abstract machines.
REGION_NAMES = {"REGION_A": "A", "REGION_B": "B"}

#: The protocol sources extraction reads, relative to the repro root.
PROTOCOL_FILES = (
    "core/epoch.py",
    "core/versions.py",
    "core/controller.py",
    "baselines/base.py",
    "baselines/journaling.py",
    "baselines/shadow.py",
    "sim/queueing.py",
)


@dataclass(frozen=True)
class Anchor:
    """Where a fact (or the failure to extract one) lives."""

    path: str
    line: int


@dataclass(frozen=True)
class RegionChoice:
    """Classification of one destination-region expression.

    ``kind`` is one of ``other-of-stable`` / ``stable`` /
    ``other-of-committed`` / ``committed`` / ``constant:A`` /
    ``constant:B`` / ``unknown``.  ``base`` is the variable the
    ``.stable_region`` read hangs off (``entry``/``pe``), used to tell
    the temp stage from the writeback stage.
    """

    kind: str
    base: str
    anchor: Anchor


@dataclass(frozen=True)
class RegionPolicy:
    """How a promotion/adoption picks its initial stable region.

    ``kind``: ``committed-derived`` (reads where the committed copies
    live), ``constant:A``/``constant:B``, or ``unknown``.
    ``defers_mixed`` is True when the policy can decline (return None)
    — required for block-grain promotion, whose committed references
    can straddle both regions.
    """

    kind: str
    defers_mixed: bool
    anchor: Anchor


@dataclass
class ProtocolFacts:
    """Everything the scheme machines consume."""

    root: Path
    files: List[Path] = field(default_factory=list)
    warnings: List[Finding] = field(default_factory=list)

    phase_members: List[str] = field(default_factory=list)
    phase_graph: Optional[TransitionGraph] = None
    initial_phase: Optional[str] = None
    state_members: List[str] = field(default_factory=list)
    state_graph: Optional[TransitionGraph] = None

    # ThyNVM checkpoint plan: role per stage, in return order.  Roles:
    # "data:<base>" (a copy stage; <base> is entry/pe) or "table:<name>".
    thynvm_stage_roles: List[str] = field(default_factory=list)
    thynvm_stage_choices: Dict[str, RegionChoice] = field(
        default_factory=dict)               # role -> region choice
    promotion: Optional[RegionPolicy] = None
    adoption: Optional[RegionPolicy] = None

    journal_stage_roles: List[str] = field(default_factory=list)  # log/home
    journal_capture_stage: Optional[int] = None   # runtime stage index
    shadow_flush: Optional[RegionChoice] = None
    cpu_stage_prepended: bool = True
    # Bulk runs: True when the queue's serviced cursor provably advances
    # one block at a time in FIFO order (so the fence accounting's
    # in-flight window is exact and no run block can outlive the fence).
    bulk_inorder: bool = False
    bulk_inorder_anchor: Optional[Anchor] = None


def _warning(facts: ProtocolFacts, path: str, line: int,
             message: str) -> None:
    facts.warnings.append(Finding(
        rule="verify-model-extraction", severity=Severity.WARNING,
        path=path, line=line, col=0, message=message))


def _find_class(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _find_method(cls: Optional[ast.ClassDef],
                 name: str) -> Optional[ast.FunctionDef]:
    if cls is None:
        return None
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _is_self_call(node: ast.AST, method: str) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == method)


def _constant_region(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name) and node.id in REGION_NAMES:
        return REGION_NAMES[node.id]
    return None


def classify_region_expr(expr: ast.AST, path: str) -> RegionChoice:
    """Classify a destination-region expression (see RegionChoice)."""
    anchor = Anchor(path, getattr(expr, "lineno", 1))
    constant = _constant_region(expr)
    if constant is not None:
        return RegionChoice(f"constant:{constant}", "", anchor)
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.id == "other_region" and len(expr.args) == 1):
        inner = expr.args[0]
        if (isinstance(inner, ast.Attribute)
                and inner.attr == "stable_region"
                and isinstance(inner.value, ast.Name)):
            return RegionChoice("other-of-stable", inner.value.id, anchor)
        if _is_self_call(inner, "_committed_region"):
            return RegionChoice("other-of-committed", "", anchor)
        return RegionChoice("unknown", "", anchor)
    if (isinstance(expr, ast.Attribute) and expr.attr == "stable_region"
            and isinstance(expr.value, ast.Name)):
        return RegionChoice("stable", expr.value.id, anchor)
    if _is_self_call(expr, "_committed_region"):
        return RegionChoice("committed", "", anchor)
    return RegionChoice("unknown", "", anchor)


def _mentions(tree: ast.AST, names: Tuple[str, ...]) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            return True
        if isinstance(node, ast.Name) and node.id in names:
            return True
    return False


def _has_return_none(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if (isinstance(node, ast.Return) and node.value is not None
                and isinstance(node.value, ast.Constant)
                and node.value.value is None):
            return True
    return False


# ---------------------------------------------------------------------------
# Per-module extraction passes
# ---------------------------------------------------------------------------

def _extract_graphs(facts: ProtocolFacts, epoch_tree: ast.Module,
                    versions_tree: ast.Module) -> None:
    facts.phase_members = extract_enum_members(epoch_tree, "Phase")
    facts.phase_graph = extract_transition_table(
        epoch_tree, "PHASE_TRANSITIONS", "Phase")
    facts.initial_phase = extract_assigned_member(
        epoch_tree, "INITIAL_PHASE", "Phase")
    facts.state_members = extract_enum_members(versions_tree,
                                               "ProtocolState")
    facts.state_graph = extract_transition_table(
        versions_tree, "ALLOWED_TRANSITIONS", "ProtocolState")
    if facts.phase_graph is None:
        _warning(facts, "core/epoch.py", 1,
                 "PHASE_TRANSITIONS not extractable; phase edges "
                 "cannot be certified")
    if facts.state_graph is None:
        _warning(facts, "core/versions.py", 1,
                 "ALLOWED_TRANSITIONS not extractable; protocol-state "
                 "edges cannot be certified")


def _table_role(call: ast.Call) -> Optional[str]:
    """``self._table_persist_jobs(self.btt, ...)`` -> ``"table:btt"``."""
    if not _is_self_call(call, "_table_persist_jobs") or not call.args:
        return None
    first = call.args[0]
    if isinstance(first, ast.Attribute):
        return f"table:{first.attr}"
    return "table:?"


def _extract_plan_checkpoint(facts: ProtocolFacts,
                             controller_tree: ast.Module) -> None:
    path = "core/controller.py"
    cls = _find_class(controller_tree, "ThyNVMController")
    func = _find_method(cls, "_plan_checkpoint")
    if func is None:
        _warning(facts, path, 1,
                 "_plan_checkpoint not found; assuming the canonical "
                 "4-stage plan with unverified stage targets")
        facts.thynvm_stage_roles = ["data:entry", "table:btt",
                                    "data:pe", "table:ptt"]
        for role in ("data:entry", "data:pe"):
            facts.thynvm_stage_choices[role] = RegionChoice(
                "unknown", "", Anchor(path, 1))
        return

    table_stages: Dict[str, str] = {}       # local name -> role
    data_choices: Dict[str, RegionChoice] = {}   # local name -> choice
    for node in func.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)):
            role = _table_role(node.value)
            if role is not None:
                table_stages[node.targets[0].id] = role
    for loop in (n for n in ast.walk(func) if isinstance(n, ast.For)):
        appended = {
            call.func.value.id
            for call in ast.walk(loop)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "append"
            and isinstance(call.func.value, ast.Name)}
        choices: List[RegionChoice] = []
        for node in ast.walk(loop):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                choice = classify_region_expr(node.value, path)
                if choice.kind != "unknown":
                    choices.append(choice)
        if len(appended) == 1 and len(choices) == 1:
            data_choices[next(iter(appended))] = choices[0]

    returned: List[str] = []
    for node in ast.walk(func):
        if (isinstance(node, ast.Return)
                and isinstance(node.value, ast.List)):
            returned = [elt.id for elt in node.value.elts
                        if isinstance(elt, ast.Name)]
    if not returned:
        _warning(facts, path, func.lineno,
                 "_plan_checkpoint has no literal stage-list return; "
                 "assuming the canonical 4-stage order")
        returned = ["stage1", "stage2", "stage3", "stage4"]

    for name in returned:
        if name in table_stages:
            facts.thynvm_stage_roles.append(table_stages[name])
        elif name in data_choices:
            choice = data_choices[name]
            role = f"data:{choice.base or name}"
            facts.thynvm_stage_roles.append(role)
            facts.thynvm_stage_choices[role] = choice
        else:
            role = f"data:{name}"
            facts.thynvm_stage_roles.append(role)
            facts.thynvm_stage_choices[role] = RegionChoice(
                "unknown", "", Anchor(path, func.lineno))
            _warning(facts, path, func.lineno,
                     f"checkpoint stage {name!r}: destination region "
                     f"not extractable; exploring both regions")


def _creation_region_expr(func: ast.FunctionDef,
                          ) -> Optional[Tuple[ast.AST, int]]:
    """The third argument of ``self.ptt.create(page, slot, X)``,
    resolved through a single local-name assignment."""
    create_arg: Optional[ast.AST] = None
    line = func.lineno
    assigns: Dict[str, ast.AST] = {}
    for node in ast.walk(func):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            assigns[node.targets[0].id] = node.value
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "create"
                and len(node.args) >= 3):
            create_arg = node.args[2]
            line = node.lineno
    if create_arg is None:
        return None
    if isinstance(create_arg, ast.Name) and create_arg.id in assigns:
        resolved = assigns[create_arg.id]
        return resolved, getattr(resolved, "lineno", line)
    return create_arg, line


def _classify_region_policy(facts: ProtocolFacts, cls: ast.ClassDef,
                            method: str, *, block_grain: bool,
                            path: str) -> RegionPolicy:
    """Classify how ``method`` picks a new PTT entry's stable region."""
    func = _find_method(cls, method)
    if func is None:
        _warning(facts, path, 1, f"{method} not found; exploring "
                 f"both initial stable regions")
        return RegionPolicy("unknown", False, Anchor(path, 1))
    resolved = _creation_region_expr(func)
    if resolved is None:
        _warning(facts, path, func.lineno,
                 f"{method}: no ptt.create() region argument found; "
                 f"exploring both initial stable regions")
        return RegionPolicy("unknown", False, Anchor(path, func.lineno))
    expr, line = resolved
    anchor = Anchor(path, line)
    constant = _constant_region(expr)
    if constant is not None:
        return RegionPolicy(f"constant:{constant}", False, anchor)
    if _is_self_call(expr, "_promotion_region"):
        assert isinstance(expr, ast.Call)
        assert isinstance(expr.func, ast.Attribute)
        helper = _find_method(cls, expr.func.attr)
        if helper is None:
            return RegionPolicy("unknown", False, anchor)
        sources = (("stable_region", "_evicted_blocks") if block_grain
                   else ("stable_region", "_evicted_pages"))
        derived = _mentions(helper, sources)
        defers = _has_return_none(helper)
        kind = "committed-derived" if derived else "unknown"
        return RegionPolicy(kind, defers, Anchor(path, helper.lineno))
    # Adoption shape: ``shadow[0] if shadow is not None else REGION_B``
    # with ``shadow`` read from the eviction shadow map.
    if _mentions(func, ("_evicted_pages",)) and _mentions(
            expr, tuple(REGION_NAMES)):
        return RegionPolicy("committed-derived", False, anchor)
    return RegionPolicy("unknown", False, anchor)


def _extract_region_policies(facts: ProtocolFacts,
                             controller_tree: ast.Module) -> None:
    path = "core/controller.py"
    cls = _find_class(controller_tree, "ThyNVMController")
    if cls is None:
        _warning(facts, path, 1, "ThyNVMController not found")
        facts.promotion = RegionPolicy("unknown", False, Anchor(path, 1))
        facts.adoption = RegionPolicy("unknown", False, Anchor(path, 1))
        return
    facts.promotion = _classify_region_policy(
        facts, cls, "_promote_page", block_grain=True, path=path)
    facts.adoption = _classify_region_policy(
        facts, cls, "_adopt_page", block_grain=False, path=path)
    if (facts.promotion.kind == "committed-derived"
            and not facts.promotion.defers_mixed):
        _warning(facts, path, facts.promotion.anchor.line,
                 "_promotion_region derives from committed copies but "
                 "has no mixed-region defer path; exploring both "
                 "initial regions")
        facts.promotion = RegionPolicy(
            "unknown", False, facts.promotion.anchor)


def _journal_job_role(comp: ast.AST) -> Optional[str]:
    """Classify a Job list comprehension by its dst_addr call."""
    for node in ast.walk(comp):
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        if node.func.attr == "_journal_nvm_addr":
            return "log"
        if node.func.attr == "home_block_addr":
            return "home"
    return None


def _extract_journal(facts: ProtocolFacts, tree: ast.Module) -> None:
    path = "baselines/journaling.py"
    cls = _find_class(tree, "JournalingController")
    func = _find_method(cls, "_checkpoint_stages")
    if func is None:
        _warning(facts, path, 1,
                 "journal _checkpoint_stages not found; assuming "
                 "log-then-home order cannot be certified")
        facts.journal_stage_roles = ["?", "?"]
        return
    roles: Dict[str, str] = {}
    for node in ast.walk(func):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            role = _journal_job_role(node.value)
            if role is not None:
                roles[node.targets[0].id] = role
    for node in ast.walk(func):
        if (isinstance(node, ast.Return)
                and isinstance(node.value, ast.List)):
            facts.journal_stage_roles = [
                roles.get(elt.id, "?") for elt in node.value.elts
                if isinstance(elt, ast.Name)]
    if not facts.journal_stage_roles:
        _warning(facts, path, func.lineno,
                 "journal stage order not extractable")
        facts.journal_stage_roles = ["?", "?"]

    capture = _find_method(cls, "_on_ckpt_stage")
    if capture is not None:
        for node in ast.walk(capture):
            if (isinstance(node, ast.If)
                    and isinstance(node.test, ast.Compare)
                    and len(node.test.comparators) == 1
                    and isinstance(node.test.comparators[0], ast.Constant)
                    and any(_is_self_call(c, "_capture_log")
                            for c in ast.walk(node))):
                value = node.test.comparators[0].value
                if isinstance(value, int):
                    facts.journal_capture_stage = value
    if facts.journal_capture_stage is None:
        _warning(facts, path,
                 capture.lineno if capture is not None else 1,
                 "journal log-durability capture stage not "
                 "extractable; treating the log as never durable")


def _extract_shadow(facts: ProtocolFacts, tree: ast.Module) -> None:
    path = "baselines/shadow.py"
    cls = _find_class(tree, "ShadowPagingController")
    func = _find_method(cls, "_checkpoint_stages")
    if func is None:
        _warning(facts, path, 1,
                 "shadow _checkpoint_stages not found; flush target "
                 "unverified")
        facts.shadow_flush = RegionChoice("unknown", "", Anchor(path, 1))
        return
    for node in ast.walk(func):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            choice = classify_region_expr(node.value, path)
            if choice.kind != "unknown":
                facts.shadow_flush = choice
    if facts.shadow_flush is None:
        _warning(facts, path, func.lineno,
                 "shadow flush destination region not extractable; "
                 "exploring both regions")
        facts.shadow_flush = RegionChoice("unknown", "",
                                          Anchor(path, func.lineno))


def _extract_bulk_inorder(facts: ProtocolFacts, tree: ast.Module) -> None:
    """Certify the bulk run service discipline of the bounded queue.

    ``_service_head_block`` must advance the run's ``serviced`` cursor
    monotonically (an ``+= 1`` AugAssign, never an aliasing assignment
    from another cursor) and take the serviced block from the FIFO
    ``pending.popleft()``.  When the discipline cannot be certified the
    shadow machine explores a *straggler world*: the pre-commit fence
    reports the flush run drained while one of its blocks is still in
    flight, so the block's image only completes after the commit record
    — every crash in between recovers from a torn destination.
    """
    path = "sim/queueing.py"
    cls = _find_class(tree, "BoundedQueue")
    func = _find_method(cls, "_service_head_block")
    if func is None:
        _warning(facts, path, 1,
                 "_service_head_block not found; bulk in-order service "
                 "cannot be certified — exploring a straggler world")
        return
    facts.bulk_inorder_anchor = Anchor(path, func.lineno)
    popleft = any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "popleft"
        and _mentions(node.func.value, ("pending",))
        for node in ast.walk(func))
    advance = False
    aliased: Optional[ast.AST] = None
    for node in ast.walk(func):
        if (isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Attribute)
                and node.target.attr == "serviced"):
            advance = isinstance(node.op, ast.Add)
        elif (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Attribute) and t.attr == "serviced"
                        for t in node.targets)):
            aliased = node
    if popleft and advance and aliased is None:
        facts.bulk_inorder = True
        return
    line = getattr(aliased, "lineno", func.lineno)
    facts.bulk_inorder_anchor = Anchor(path, line)
    _warning(facts, path, line,
             "_service_head_block: bulk serviced cursor does not "
             "provably advance one FIFO block at a time; exploring a "
             "straggler world where a run block outlives the fence")


def _extract_base(facts: ProtocolFacts, tree: ast.Module) -> None:
    path = "baselines/base.py"
    cls = _find_class(tree, "StopTheWorldController")
    func = _find_method(cls, "_boundary_done")
    prepended = None
    if func is not None:
        for node in ast.walk(func):
            if (isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Add)
                    and isinstance(node.left, ast.List)
                    and any(_is_self_call(c, "_cpu_state_jobs")
                            for c in ast.walk(node.left))):
                prepended = True
    if prepended is None:
        _warning(facts, path,
                 func.lineno if func is not None else 1,
                 "CPU-state stage prepend not extractable; assuming "
                 "stage indices start at the subclass stages")
        facts.cpu_stage_prepended = False
    else:
        facts.cpu_stage_prepended = True


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def default_root() -> Path:
    """The live ``repro`` package the CLI verifies (src/repro)."""
    return Path(__file__).resolve().parent.parent.parent


def extract_facts(root: Optional[Path] = None) -> ProtocolFacts:
    """Parse the protocol sources under ``root`` into ProtocolFacts."""
    root = root if root is not None else default_root()
    facts = ProtocolFacts(root=root)
    trees: Dict[str, ast.Module] = {}
    for rel in PROTOCOL_FILES:
        path = root / rel
        if not path.exists():
            _warning(facts, rel, 1, f"protocol source {rel} missing "
                     f"under {root}")
            continue
        facts.files.append(path)
        trees[rel] = ast.parse(path.read_text(encoding="utf-8"))
    if "core/epoch.py" in trees and "core/versions.py" in trees:
        _extract_graphs(facts, trees["core/epoch.py"],
                        trees["core/versions.py"])
    if "core/controller.py" in trees:
        _extract_plan_checkpoint(facts, trees["core/controller.py"])
        _extract_region_policies(facts, trees["core/controller.py"])
    if "baselines/journaling.py" in trees:
        _extract_journal(facts, trees["baselines/journaling.py"])
    if "baselines/shadow.py" in trees:
        _extract_shadow(facts, trees["baselines/shadow.py"])
    if "baselines/base.py" in trees:
        _extract_base(facts, trees["baselines/base.py"])
    if "sim/queueing.py" in trees:
        _extract_bulk_inorder(facts, trees["sim/queueing.py"])
    return facts
