"""Per-scheme abstract machines, parameterized by extracted facts.

Each of the five fuzzable systems gets a machine builder that replays
the fuzz driver's epoch structure (write -> settle -> forced boundary
-> commit, :mod:`repro.fuzz.runner`) against representative abstract
objects, emitting exactly the probe events the runtime fires along the
way — the emission sequence is pinned to the fuzzer's site census by
test.  The *safety-relevant choices* are not hard-coded: each
checkpoint's stages, their order and where each writes come from the
system's declared ``CHECKPOINT_PLAN`` (a plan that did not extract is
not explored), and which region a promoted page calls stable comes
from :class:`~.extract.ProtocolFacts`, where every policy extraction
could not resolve fans the build out into one pessimistic world per
candidate behaviour.

Trusted (not extracted) disciplines, i.e. the soundness boundary —
see docs/VERIFY.md: write-queue drain before boundaries, demotion's
complement-region copy, commit-record atomicity via torn detection,
and DRAM volatility, all four fuzzed at runtime; and that each planner
writes what its plan declares, which a tier-1 property test checks.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .extract import DeclaredStage, ProtocolFacts, RegionPolicy
from .model import (IMG, TORN, AbstractState, Emission, Exploration,
                    RecoveryCheck, Trace, TraceBuilder, explore)

#: Systems the verifier certifies — pinned by test to fuzz.plan.FUZZ_SYSTEMS.
VERIFY_SYSTEMS = ("thynvm", "thynvm_block_only", "thynvm_page_only",
                  "journal", "shadow")

#: Workloads whose driver structure the machines replay — pinned to
#: fuzz.workloads' WORKLOAD_NAMES by test.
VERIFY_WORKLOADS = ("sparse", "hotpage")

#: Epoch boundaries each machine drives; matches the fuzzer's default
#: census depth so every occurrence a census run counts is explored.
DEFAULT_EPOCHS = 3

_REGIONS = ("A", "B")


def _other(region: str) -> str:
    return "B" if region == "A" else "A"


# ---------------------------------------------------------------------------
# World fan-out from facts
# ---------------------------------------------------------------------------

def _policy_regions(policy: Optional[RegionPolicy], derived: str,
                    what: str) -> List[Tuple[str, str]]:
    """Candidate (region, assumption) pairs for an initial-stable policy.

    ``derived`` is the region the committed-derived policy yields in
    this trace shape.  Clean extraction -> one world with no
    assumption; a constant or unknown policy -> pessimistic worlds.
    """
    if policy is not None and policy.kind == "committed-derived":
        return [(derived, "")]
    if policy is not None and policy.kind.startswith("constant:"):
        region = policy.kind.split(":", 1)[1]
        return [(region, f"{what} pinned to region {region} "
                         f"({policy.anchor.path}:{policy.anchor.line})")]
    return [(region, f"{what} unresolved; assuming region {region}")
            for region in _REGIONS]


def _land(dest: str, committed: str, home: str = "B") -> str:
    """Where a declared ``Dest`` rule sends an object whose committed
    copy is at ``committed`` (region B is the Home Region)."""
    if dest == "COMPLEMENT":
        return _other(committed)
    if dest == "COMMITTED":
        return committed
    if dest == "HOME":
        return home
    return "log"            # Dest.LOG


def _at(stage: DeclaredStage) -> Tuple[str, int]:
    return (stage.anchor.path, stage.anchor.line)


def _role_index(plan: List[DeclaredStage], role: str) -> int:
    return [stage.role for stage in plan].index(role)


# ---------------------------------------------------------------------------
# Shared trace fragments
# ---------------------------------------------------------------------------

def _checkpoint(b: TraceBuilder, *, boundary: int,
                tables: Tuple[str, ...],
                stage_writes: Dict[int, Tuple[Tuple[str, str, Tuple[str, int]],
                                              ...]],
                stages: int,
                stage_anchors: Optional[Dict[int, Tuple[str, int]]] = None,
                ) -> None:
    """One forced epoch boundary up to (not including) commit effects.

    ``tables`` are the table-persist details fired at planning time;
    ``stage_writes`` maps stage index -> durable writes that stage
    performs (every listed stage persists; unlisted stages fire their
    ``stage-done`` with nothing to do, exactly like the runtime's
    empty-stage probes).
    """
    anchors = stage_anchors or {}
    b.set_phase("ENDING")
    b.step(f"boundary-{boundary}:request-end")
    for table in tables:
        b.step(f"boundary-{boundary}:plan-{table}",
               emission=Emission("table-persist", table),
               writes=((f"meta:{table}", "next", (IMG, b.epoch)),),
               persist=True)
    b.set_phase("CHECKPOINTING")
    b.step(f"boundary-{boundary}:start",
           emission=Emission("ckpt-start"))
    for stage in range(stages):
        writes = stage_writes.get(stage, ())
        b.step(f"boundary-{boundary}:stage-{stage}",
               emission=Emission("stage-done", str(stage)),
               writes=writes, persist=bool(writes),
               anchor=anchors.get(stage))
    b.step(f"boundary-{boundary}:fence", emission=Emission("fence"))
    b.step(f"boundary-{boundary}:commit-record",
           emission=Emission("commit-write"),
           writes=(("meta:commit", "record", (IMG, b.epoch)),),
           persist=True)


def _commit(b: TraceBuilder, boundary: int,
            refs: Dict[str, Tuple[str, int]],
            pre_steps: Tuple[Tuple[str, Emission, Optional[Tuple[str, int]]],
                             ...] = ()) -> None:
    """Commit effects: scheme switches fire first, then the commit
    probe makes the boundary's metadata authoritative for recovery."""
    # The runtime flushes the backing stores to their medium as soon as
    # the commit record is serviced (mmap msync, docs/PERSISTENCE.md):
    # a fence-like effect on the store surface, no abstract-state write.
    b.step(f"boundary-{boundary}:store-sync",
           emission=Emission("store-sync"))
    for label, emission, anchor in pre_steps:
        b.step(f"boundary-{boundary}:{label}", emission=emission,
               anchor=anchor)
    b.committed.update(refs)
    b.committed_epoch = b.epoch
    b.set_phase("EXECUTING")
    b.step(f"boundary-{boundary}:commit", emission=Emission("commit"))
    b.epoch += 1


# ---------------------------------------------------------------------------
# ThyNVM (hybrid / block-only / page-only)
# ---------------------------------------------------------------------------

def _thynvm_block_trace(system: str, workload: str, epochs: int,
                        plan: List[DeclaredStage]) -> TraceBuilder:
    """Block-remapping flow: every write is block-grain, in place in
    NVM at the complement of the BTT entry's stable region (fresh
    entries call region B stable), and commit flips stable."""
    b = TraceBuilder(system, workload)
    b.object_state("blk", "HOME")
    stable = "B"
    for _ in range(epochs):
        boundary = b.boundaries + 1
        b.object_state("blk", "NVM_WORKING")
        b.step(f"epoch-{b.epoch}:write-blocks",
               writes=(("blk", _other(stable), (IMG, b.epoch)),),
               persist=True)
        b.boundaries = boundary
        b.object_state("blk", "NVM_CHECKPOINTING")
        _checkpoint(b, boundary=boundary, tables=("btt",),
                    stage_writes={}, stages=len(plan))
        stable = _other(stable)
        b.object_state("blk", "CLEAN")
        _commit(b, boundary, {"blk": (stable, b.epoch)})
        b.object_state("blk", "NVM_WORKING" if b.epoch < epochs
                       else "CLEAN")
    return b


def _thynvm_hotpage_traces(epochs: int, facts: ProtocolFacts,
                           plan: List[DeclaredStage]
                           ) -> Iterator[TraceBuilder]:
    """Hybrid flow under the hot-page workload: epoch 0 writes the hot
    page block-grain; the first commit promotes it to page grain; later
    epochs buffer writes in DRAM and the checkpoint's declared ``page``
    stage copies them where its rule says."""
    wb_index = _role_index(plan, "page")
    writeback = plan[wb_index]
    block_stable = "B"           # fresh BTT entries call region B stable
    committed_at = _other(block_stable)   # after the first commit flip
    for promo_region, promo_why in _policy_regions(
            facts.promotion, derived=committed_at,
            what="page-promotion stable region"):
        b = TraceBuilder("thynvm", "hotpage", promo_why)
        b.object_state("hot", "HOME")
        b.object_state("hot", "NVM_WORKING")
        b.step("epoch-0:write-blocks",
               writes=(("hot", _other(block_stable), (IMG, 0)),),
               persist=True)
        b.boundaries = 1
        b.object_state("hot", "NVM_CHECKPOINTING")
        _checkpoint(b, boundary=1, tables=("btt",),
                    stage_writes={}, stages=len(plan))
        b.object_state("hot", "CLEAN")
        promo_anchor = (facts.promotion.anchor.path,
                        facts.promotion.anchor.line) \
            if facts.promotion is not None else None
        _commit(b, 1, {"hot": (committed_at, 0)},
                pre_steps=(("promote", Emission("promote"),
                            promo_anchor),))
        page_stable = promo_region
        for _ in range(1, epochs):
            boundary = b.boundaries + 1
            b.object_state("hot", "DRAM_TEMP")
            b.step(f"epoch-{b.epoch}:write-page-dram",
                   writes=(("hot", "dram", (IMG, b.epoch)),))
            b.boundaries = boundary
            b.object_state("hot", "DRAM_CHECKPOINTING")
            dst = _land(writeback.dest, page_stable)
            _checkpoint(b, boundary=boundary, tables=("btt", "ptt"),
                        stage_writes={
                            wb_index: (("hot", dst, (IMG, b.epoch)),)},
                        stages=len(plan),
                        stage_anchors={wb_index: _at(writeback)})
            page_stable = dst
            b.object_state("hot", "CLEAN")
            _commit(b, boundary, {"hot": (page_stable, b.epoch)})
        yield b


def _thynvm_page_traces(system: str, workload: str, epochs: int,
                        facts: ProtocolFacts, plan: List[DeclaredStage]
                        ) -> Iterator[TraceBuilder]:
    """Page-grain flow: writes buffer in DRAM (volatile), the declared
    ``page`` stage copies them where its rule sends the PTT entry's
    stable region, and cold pages demote at later commits (the
    demotion copy itself targets the complement region — a trusted
    discipline, exercised by the runtime fuzzer)."""
    wb_index = _role_index(plan, "page")
    writeback = plan[wb_index]
    for adopt_region, adopt_why in _policy_regions(
            facts.adoption, derived="B",
            what="page-adoption stable region"):
        b = TraceBuilder(system, workload, adopt_why)
        b.object_state("hot", "HOME")
        b.object_state("cold", "HOME")
        hot_stable = adopt_region
        cold_ref: Tuple[str, int] = ("home", -1)
        cold_demoted_to: Optional[str] = None
        for _ in range(epochs):
            epoch = b.epoch
            boundary = b.boundaries + 1
            b.object_state("hot", "DRAM_TEMP")
            writes = [("hot", "dram", (IMG, epoch))]
            if epoch == 0:
                b.object_state("cold", "DRAM_TEMP")
                writes.append(("cold", "dram", (IMG, 0)))
            b.step(f"epoch-{epoch}:write-pages-dram",
                   writes=tuple(writes))
            b.boundaries = boundary
            hot_dst = _land(writeback.dest, hot_stable)
            stage: List[Tuple[str, str, Tuple[str, int]]] = [
                ("hot", hot_dst, (IMG, epoch))]
            refs: Dict[str, Tuple[str, int]] = {}
            b.object_state("hot", "DRAM_CHECKPOINTING")
            if epoch == 0:
                b.object_state("cold", "DRAM_CHECKPOINTING")
                cold_dst = _land(writeback.dest, adopt_region)
                stage.append(("cold", cold_dst, (IMG, 0)))
                refs["cold"] = (cold_dst, 0)
            _checkpoint(b, boundary=boundary, tables=("ptt",),
                        stage_writes={wb_index: tuple(stage)},
                        stages=len(plan),
                        stage_anchors={wb_index: _at(writeback)})
            hot_stable = hot_dst
            refs["hot"] = (hot_stable, epoch)
            pre: Tuple[Tuple[str, Emission,
                             Optional[Tuple[str, int]]], ...] = ()
            if boundary == 2:
                # The cold page went unwritten for an epoch: the
                # commit's scheme-switch pass demotes it, copying
                # its committed image to the complement region.
                cold_demoted_to = _other(cold_ref[0])
                pre = (("demote", Emission("demote"), None),)
            if boundary == 3 and cold_demoted_to is not None:
                refs["cold"] = (cold_demoted_to, cold_ref[1])
            b.object_state("hot", "CLEAN")
            if epoch == 0:
                b.object_state("cold", "CLEAN")
            _commit(b, boundary, refs, pre_steps=pre)
            if pre:
                b.step(f"boundary-{boundary}:demote-copy",
                       writes=(("cold", _other(cold_ref[0]),
                                (IMG, cold_ref[1])),),
                       persist=True)
            cold_ref = refs.get("cold", cold_ref)
        yield b


# ---------------------------------------------------------------------------
# Baselines (stop-the-world: journaling, shadow paging)
# ---------------------------------------------------------------------------

def _journal_traces(workload: str, epochs: int,
                    plan: List[DeclaredStage]) -> Iterator[TraceBuilder]:
    """Journaling: buffered writes flush at the boundary through the
    declared stages (a redo log, then the in-place home writes); the
    ``log`` stage's completion makes the log what recovery replays
    over torn home images."""
    b = TraceBuilder("journal", workload)
    for _ in range(epochs):
        epoch = b.epoch
        boundary = b.boundaries + 1
        b.step(f"epoch-{epoch}:write-buffered",
               writes=(("dat", "dram", (IMG, epoch)),))
        b.boundaries = boundary
        b.set_phase("ENDING")
        b.step(f"boundary-{boundary}:request-end")
        b.step(f"boundary-{boundary}:plan-log",
               emission=Emission("table-persist", "log"),
               writes=(("meta:log", "next", (IMG, epoch)),),
               persist=True)
        b.set_phase("CHECKPOINTING")
        b.step(f"boundary-{boundary}:start",
               emission=Emission("ckpt-start"))
        for index, stage in enumerate(plan):
            cell = (("meta:cpu", "state") if stage.role == "cpu"
                    else ("dat", _land(stage.dest, "home", home="home")))
            b.step(f"boundary-{boundary}:stage-{index}",
                   emission=Emission("stage-done", str(index)),
                   writes=((*cell, (IMG, epoch)),),
                   persist=True, anchor=_at(stage))
            if stage.role == "log":
                b.log_epoch = epoch
        b.step(f"boundary-{boundary}:fence",
               emission=Emission("fence"))
        b.step(f"boundary-{boundary}:commit-record",
               emission=Emission("commit-write"),
               writes=(("meta:commit", "record", (IMG, epoch)),),
               persist=True)
        b.log_epoch = None      # home writes landed; log retired
        _commit(b, boundary, {"dat": ("home", epoch)})
    yield b


def _shadow_traces(workload: str, epochs: int, facts: ProtocolFacts,
                   plan: List[DeclaredStage]) -> Iterator[TraceBuilder]:
    """Shadow paging: buffered writes flush through the declared
    ``page`` stage (to the complement of each page's committed region);
    commit flips the page-map entry.

    The flush stage runs as a *bulk run* (one read run + one write run
    per dirty page, docs/PERFORMANCE.md), so the machine splits it in
    two: a ``bulk-write`` step modelling a crash with only a prefix of
    the run's blocks durable (the destination holds a torn image), then
    the ``stage-done`` step that completes the image.  The runtime
    probe fires once per durable block; the abstract step stands for
    every mid-run prefix, which all leave the same torn destination."""
    if facts.bulk_inorder:
        straggler_worlds: List[Tuple[bool, str]] = [(False, "")]
    else:
        straggler_worlds = [
            (False, "bulk service order unresolved; assuming in-order"),
            (True, "bulk service order unresolved; assuming a straggler "
                   "run block outlives the pre-commit fence"),
        ]
    data_stage = _role_index(plan, "page")
    flush = plan[data_stage]
    for straggler, why in straggler_worlds:
        b = TraceBuilder("shadow", workload, why)
        committed_region = "B"      # page map defaults to region B
        straggler_anchor = ((facts.bulk_inorder_anchor.path,
                             facts.bulk_inorder_anchor.line)
                            if facts.bulk_inorder_anchor is not None
                            else _at(flush))
        for _ in range(epochs):
            epoch = b.epoch
            boundary = b.boundaries + 1
            b.step(f"epoch-{epoch}:write-buffered",
                   writes=(("dat", "dram", (IMG, epoch)),))
            b.boundaries = boundary
            b.set_phase("ENDING")
            b.step(f"boundary-{boundary}:plan-pagemap",
                   emission=Emission("table-persist", "pagemap"),
                   writes=(("meta:pagemap", "next", (IMG, epoch)),),
                   persist=True)
            b.set_phase("CHECKPOINTING")
            b.step(f"boundary-{boundary}:start",
                   emission=Emission("ckpt-start"))
            dst = _land(flush.dest, committed_region)
            for index, stage in enumerate(plan):
                if index != data_stage:
                    writes = (("meta:cpu", "state", (IMG, epoch)),)
                else:
                    # A prefix of the page-flush bulk run is durable:
                    # the destination holds a torn image until the
                    # stage's last block is serviced — and, in the
                    # straggler world, still at stage end.
                    b.step(f"boundary-{boundary}:bulk-block",
                           emission=Emission("bulk-write", str(index)),
                           writes=(("dat", dst, (TORN, epoch)),),
                           persist=True, anchor=_at(stage))
                    writes = (("dat", dst,
                               (TORN if straggler else IMG, epoch)),)
                b.step(f"boundary-{boundary}:stage-{index}",
                       emission=Emission("stage-done", str(index)),
                       writes=writes, persist=True, anchor=_at(stage))
            b.step(f"boundary-{boundary}:fence",
                   emission=Emission("fence"))
            b.step(f"boundary-{boundary}:commit-record",
                   emission=Emission("commit-write"),
                   writes=(("meta:commit", "record", (IMG, epoch)),),
                   persist=True)
            committed_region = dst
            _commit(b, boundary, {"dat": (committed_region, epoch)})
            if straggler:
                # The straggler block only lands after the commit
                # record; every crash since the commit recovered from
                # the torn destination the metadata now points at.
                b.step(f"boundary-{boundary}:straggler-block",
                       emission=Emission("bulk-write", str(data_stage)),
                       writes=(("dat", dst, (IMG, epoch)),),
                       persist=True, anchor=straggler_anchor)
        yield b


# ---------------------------------------------------------------------------
# Recovery checks
# ---------------------------------------------------------------------------

def _region_recover(state: AbstractState) -> Optional[str]:
    """Committed-prefix check for region-committed schemes: the cell
    the committed metadata points at must hold exactly the committed
    epoch's complete image (or the untouched initial image)."""
    objs = {name for name, _ in state.committed}
    objs.update(obj for (obj, _loc), _tag in state.mem)
    for obj in sorted(objs):
        if obj.startswith("meta:"):
            continue        # versioned metadata: old copy authoritative
        loc, epoch = state.committed_ref(obj)
        tag = state.cell(obj, loc)
        if tag is None:
            if epoch == -1:
                continue    # never overwritten: initial image intact
            return (f"{obj}: committed epoch-{epoch} copy at region "
                    f"{loc} is gone")
        kind, written = tag
        if kind == TORN:
            return (f"{obj}: recovery reads region {loc}, torn by an "
                    f"epoch-{written} write")
        if written != epoch:
            return (f"{obj}: committed epoch-{epoch} copy at region "
                    f"{loc} overwritten by epoch-{written} data")
    return None


def _journal_recover(state: AbstractState) -> Optional[str]:
    """Journaling recovers any complete home image (the runtime oracle
    accepts membership in the committed/pending set); a torn home image
    with no durable log covering that epoch is unrecoverable, and so is
    a record naming a log the log area does not hold."""
    if (state.log_epoch is not None
            and state.cell("dat", "log") != (IMG, state.log_epoch)):
        return (f"dat: the record names the epoch-{state.log_epoch} redo "
                f"log, which the log area does not hold")
    for (obj, loc), (kind, epoch) in state.mem:
        if obj.startswith("meta:") or loc != "home":
            continue
        if kind == TORN and state.log_epoch != epoch:
            return (f"{obj}: home image torn by the epoch-{epoch} "
                    f"in-place stage with no durable log to replay")
    return None


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_builders(system: str, facts: ProtocolFacts, epochs: int,
                    workloads: Tuple[str, ...]) -> List[TraceBuilder]:
    if system not in VERIFY_SYSTEMS:
        raise ValueError(f"unknown system: {system}")
    plan = facts.plans.get("thynvm" if system.startswith("thynvm")
                           else system)
    if plan is None:
        return []           # the extraction finding is the verdict
    builders: List[TraceBuilder] = []
    for workload in workloads:
        if system == "thynvm" and workload == "hotpage":
            builders.extend(_thynvm_hotpage_traces(epochs, facts, plan))
        elif system in ("thynvm", "thynvm_block_only"):
            builders.append(_thynvm_block_trace(system, workload, epochs,
                                                plan))
        elif system == "thynvm_page_only":
            builders.extend(_thynvm_page_traces(system, workload, epochs,
                                                facts, plan))
        elif system == "journal":
            builders.extend(_journal_traces(workload, epochs, plan))
        else:
            builders.extend(_shadow_traces(workload, epochs, facts, plan))
    return builders


def build_traces(system: str, facts: ProtocolFacts, epochs: int,
                 workloads: Tuple[str, ...]) -> List[Trace]:
    return [b.trace for b in _build_builders(system, facts, epochs,
                                             workloads)]


def recovery_check(system: str) -> RecoveryCheck:
    return _journal_recover if system == "journal" else _region_recover


def build_exploration(system: str, facts: ProtocolFacts,
                      epochs: int = DEFAULT_EPOCHS,
                      workloads: Tuple[str, ...] = VERIFY_WORKLOADS,
                      ) -> Exploration:
    """Build every world's trace for ``system`` and explore crashes.

    The builders' observed phase/protocol-state edges are merged into
    the exploration so the runner can certify them against the
    statically extracted transition tables (and the property tests can
    check runtime-observed transitions against them).
    """
    builders = _build_builders(system, facts, epochs, workloads)
    exploration = explore(system, [b.trace for b in builders],
                          recovery_check(system))
    for builder in builders:
        exploration.phase_edges |= builder.phase_edges
        for obj, edges in builder.state_edges.items():
            exploration.state_edges.setdefault(obj, set()).update(edges)
    return exploration
