"""Static extraction of the protocol facts the abstract machines need.

The machines in :mod:`.schemes` are parameterized, not hard-coded: the
safety-relevant decisions of each scheme are *extracted from the
protocol sources* and the machine branches pessimistically over every
fact the extraction cannot pin down.  The facts are:

* the epoch phase graph and the per-block protocol-state graph (the
  same ``PHASE_TRANSITIONS``/``ALLOWED_TRANSITIONS`` literals the lint
  rules check, via :mod:`repro.analysis.graphs`);
* each system's checkpoint plan, read from the ``CHECKPOINT_PLAN``
  literal its planner walks (ThyNVM ``temp → btt → page → ptt``,
  journaling ``cpu → log → home``, shadow paging ``cpu → page``):
  every stage's role and :class:`~repro.core.checkpoint.Dest` rule, in
  runtime stage order.  Nothing is guessed from planner bodies; a
  missing or malformed literal, or one whose roles the machines do not
  model, leaves that plan unverified and is a finding;
* the initial-stable-region policy of page promotion
  (``_promote_page``/``_promotion_region``) and page adoption
  (``_adopt_page``) — safe only when derived from where the committed
  copies live, with promotion additionally deferring mixed-region pages;
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
    "core/checkpoint.py",
    "core/controller.py",
    "baselines/journaling.py",
    "baselines/shadow.py",
    "sim/queueing.py",
)


@dataclass(frozen=True)
class Anchor:
    """Where a fact (or the failure to extract one) lives."""

    path: str
    line: int


#: The declared checkpoint plans: plan -> (source, {role: is-data}),
#: naming every stage role the abstract machines model.  A data stage
#: writes protected objects; any other stage writes the Backup Region.
#: The ``thynvm`` plan serves all three ThyNVM variants.
PLAN_SOURCES: Dict[str, Tuple[str, Dict[str, bool]]] = {
    "thynvm": ("core/controller.py",
               {"temp": True, "btt": False, "page": True, "ptt": False}),
    "journal": ("baselines/journaling.py",
                {"cpu": False, "log": True, "home": True}),
    "shadow": ("baselines/shadow.py", {"cpu": False, "page": True}),
}


@dataclass(frozen=True)
class DeclaredStage:
    """One stage of a declared checkpoint plan: its role, its ``Dest``
    member name and the line declaring it."""

    role: str
    dest: str
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

    # Declared checkpoint plans by PLAN_SOURCES key, in stage order;
    # a plan that does not extract is absent.
    plans: Dict[str, List[DeclaredStage]] = field(default_factory=dict)
    promotion: Optional[RegionPolicy] = None
    adoption: Optional[RegionPolicy] = None
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


def _read_plan(tree: ast.Module, path: str, dests: List[str],
               ) -> Tuple[Optional[List[DeclaredStage]], int]:
    """The module-level ``CHECKPOINT_PLAN = ((role, Dest.MEMBER), ...)``
    literal, and its line; ``None`` when absent or of another shape."""
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CHECKPOINT_PLAN"
                for t in node.targets)):
            continue
        if not isinstance(node.value, (ast.Tuple, ast.List)):
            return None, node.lineno
        stages: List[DeclaredStage] = []
        for elt in node.value.elts:
            if not (isinstance(elt, ast.Tuple) and len(elt.elts) == 2):
                return None, elt.lineno
            role, dest = elt.elts
            if not (isinstance(role, ast.Constant)
                    and isinstance(role.value, str)
                    and isinstance(dest, ast.Attribute)
                    and isinstance(dest.value, ast.Name)
                    and dest.value.id == "Dest" and dest.attr in dests):
                return None, elt.lineno
            stages.append(DeclaredStage(role.value, dest.attr,
                                        Anchor(path, elt.lineno)))
        return stages, node.lineno
    return None, 1


def _extract_plans(facts: ProtocolFacts,
                   trees: Dict[str, ast.Module]) -> None:
    checkpoint = trees.get("core/checkpoint.py")
    dests = (extract_enum_members(checkpoint, "Dest")
             if checkpoint is not None else [])
    for name, (path, modeled) in PLAN_SOURCES.items():
        tree = trees.get(path)
        if tree is None:
            continue            # the missing source is already a finding
        stages, line = _read_plan(tree, path, dests)
        if stages is None:
            problem = ("no CHECKPOINT_PLAN literal of (role, Dest.MEMBER) "
                       "pairs")
        elif sorted(stage.role for stage in stages) != sorted(modeled):
            problem = (f"CHECKPOINT_PLAN roles "
                       f"{[stage.role for stage in stages]} differ from the "
                       f"modelled {sorted(modeled)}")
        elif any((stage.dest == "BACKUP") == modeled[stage.role]
                 for stage in stages):
            problem = ("CHECKPOINT_PLAN aims a data stage at Dest.BACKUP, "
                       "or a table/CPU-state stage elsewhere")
        else:
            facts.plans[name] = stages
            continue
        _warning(facts, path, line,
                 f"{problem}; the {name} checkpoint plan is not verified")


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
    _extract_plans(facts, trees)
    if "core/controller.py" in trees:
        _extract_region_policies(facts, trees["core/controller.py"])
    if "sim/queueing.py" in trees:
        _extract_bulk_inorder(facts, trees["sim/queueing.py"])
    return facts
