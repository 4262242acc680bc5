"""Seeded defects, one source patch each, for the mutant x detector matrix.

Each :class:`Mutant` replaces one ``anchor`` string, which must occur
exactly once in ``file`` (relative to ``src/repro/``), with
``replacement``.  ``exposed_by`` names the input that shows the defect.
``None`` marks a patch with no known exposing input: it does not count
as a defect and cannot justify keeping the rule that flags it.
``aimed_at``
lists the lint rules and verify checks whose bug class the patch
belongs to.

``tests/mutants/run.py`` applies each patch to a fresh copy of the tree
and runs every detector on it (docs/ANALYSIS.md, "Catch matrix").
``tests/mutants/test_catalogue.py`` keeps every anchor applicable.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Optional, Tuple


class Mutant(NamedTuple):
    name: str
    file: str
    anchor: str
    replacement: str
    exposed_by: Optional[str]
    aimed_at: Tuple[str, ...] = ()


def apply(mutant: Mutant, src: Path) -> None:
    """Patch the ``repro`` package under ``src`` in place."""
    path = src / "repro" / mutant.file
    source = path.read_text()
    count = source.count(mutant.anchor)
    if count != 1:
        raise ValueError(f"mutant {mutant.name}: anchor occurs {count} "
                         f"times in {mutant.file}")
    path.write_text(source.replace(mutant.anchor, mutant.replacement))


MUTANTS = (
    # --- api -----------------------------------------------------------
    Mutant(
        "all-lists-missing-name", "core/__init__.py",
        '    "validate_transition",\n',
        '    "validate_transitions",\n',
        "`from repro.core import *` raises AttributeError "
        "(tests/test_exports.py)",
        ("api-all-exports",)),
    Mutant(
        "port-signature-swapped", "baselines/ideal.py",
        "                    data: Optional[bytes] = None,\n"
        "                    callback=None, on_accept=None) -> None:\n",
        "                    callback=None, data: Optional[bytes] = None,\n"
        "                    on_accept=None) -> None:\n",
        "a positional write_block(addr, origin, data) on an ideal system "
        "stores nothing and calls its payload "
        "(test_port_conformance.py::test_write_without_callbacks_is_fine)",
        ("api-port-surface",)),
    # --- determinism ---------------------------------------------------
    Mutant(
        "engine-host-deadline", "sim/engine.py",
        "        pop = heapq.heappop\n"
        "        now = self.now\n"
        "        while queue:\n",
        "        pop = heapq.heappop\n"
        "        now = self.now\n"
        "        from time import perf_counter\n"
        "        deadline = perf_counter() + 600.0\n"
        "        while queue and perf_counter() < deadline:\n",
        "any run longer than 600 s of host time (a loaded host, a "
        "profiler) stops early and reports different cycles",
        ("det-wallclock",)),
    Mutant(
        "evict-order-shuffled", "core/controller.py",
        "            candidates = [entry for _block, entry in self.btt\n"
        "                          if entry.is_idle]\n",
        "            candidates = [entry for _block, entry in self.btt\n"
        "                          if entry.is_idle]\n"
        "            import random\n"
        "            random.shuffle(candidates)\n",
        "the emergency-eviction cells (`@btt256`) evict different victims "
        "on every run",
        ("det-global-random",)),
    Mutant(
        "queue-tail-by-id", "sim/queueing.py",
        'key=attrgetter("age"))',
        "key=id)",
        "a bulk run that outlives the queue's youngest entry re-finds the "
        "tail by address, not age, and grows out of FIFO order",
        ("det-id-order",)),
    Mutant(
        "plan-walked-as-set", "core/controller.py",
        "        for role, dest in self.PLAN:\n",
        "        for role, dest in set(self.PLAN):\n",
        "the stage order follows the string hash, so it changes with "
        "PYTHONHASHSEED",
        ("det-set-iter",)),
    Mutant(
        "temp-stage-set-pop", "core/controller.py",
        "        for block in sorted(self._temp_by_epoch.pop(epoch, ())):\n",
        "        temps: Set[int] = self._temp_by_epoch.pop(epoch, set())\n"
        "        while temps:\n"
        "            block = temps.pop()\n",
        # Int hashes ignore PYTHONHASHSEED: the pop order is a fixed
        # function of the set's contents, so every run agrees.
        None,
        ("det-set-pop",)),
    # --- persist -------------------------------------------------------
    Mutant(
        "commit-without-fence", "core/checkpoint.py",
        "self.memctrl.fence_writes(DeviceKind.NVM, self._write_commit)",
        "self._write_commit()",
        "NVM writes queued at the fence (the drive of "
        "test_nvm_queue_is_drained_at_every_commit_record): the commit "
        "record overtakes them",
        ("persist-unfenced-commit",)),
    Mutant(
        "committed-meta-updated-in-place", "core/controller.py",
        "        self.committed_meta = self._snapshot(epoch)\n"
        "        self._write_record()\n",
        "        fresh = self._snapshot(epoch)\n"
        "        self.committed_meta.epoch = epoch\n"
        "        self.committed_meta.cpu_state = fresh.cpu_state\n"
        "        self.committed_meta.block_regions.update(fresh.block_regions)\n"
        "        self.committed_meta.page_regions.update(fresh.page_regions)\n"
        "        self._write_record()\n",
        "GC returns a region-A block home, the block is rewritten into "
        "its A slot, and a crash hits before that epoch commits: the "
        "record still maps the block to A "
        "(test_hazard_windows.py::test_gc_dropped_block_reads_from_home)",
        ("persist-committed-mutation",)),
    Mutant(
        "gc-drop-while-table-persists", "core/controller.py",
        "            elif role == \"btt\":\n"
        "                stages.append(self._table_persist_jobs(\n"
        "                    self.btt, layout.btt_backup_offset,\n"
        "                    layout.btt_backup_blocks))\n",
        "            elif role == \"btt\":\n"
        "                stages.append(self._table_persist_jobs(\n"
        "                    self.btt, layout.btt_backup_offset,\n"
        "                    layout.btt_backup_blocks))\n"
        "                for entry in self._absorbed_to_drop:\n"
        "                    self.btt.remove(entry.block)\n"
        "                self._absorbed_to_drop = []\n",
        # The commit drops the same entries before its snapshot; the
        # two differ only while a consolidation write waits for queue
        # admission at the fence, which no run reaches.
        None,
        ("persist-reentrant-callback",)),
    # --- protocol ------------------------------------------------------
    Mutant(
        "harness-clears-dirty-pages", "harness/runner.py",
        "        if remaining[\"n\"] == 0:\n"
        "            system.memsys.drain(on_drained)\n",
        "        if remaining[\"n\"] == 0:\n"
        "            for _page, pe in getattr(system.memsys, \"ptt\", ()):\n"
        "                pe.dirty_active = set()\n"
        "            system.memsys.drain(on_drained)\n",
        # No input found: the golden cells that promote pages are
        # unchanged.
        None,
        ("proto-entry-mutation",)),
    Mutant(
        "harness-drops-idle-entries", "harness/runner.py",
        "        if remaining[\"n\"] == 0:\n"
        "            system.memsys.drain(on_drained)\n",
        "        if remaining[\"n\"] == 0:\n"
        "            btt = getattr(system.memsys, \"btt\", None)\n"
        "            for block in [b for b, e in btt or () if e.is_idle]:\n"
        "                btt.remove(block)\n"
        "            system.memsys.drain(on_drained)\n",
        "any thynvm run: the final checkpoint's record loses every idle "
        "block still remapped to a region",
        ("proto-table-mutation",)),
    Mutant(
        "checkpoint-phase-skipped", "core/epoch.py",
        "        self._set_phase(Phase.CHECKPOINTING)\n",
        "        self.phase = Phase.EXECUTING\n",
        "the first commit of any run: it finds no checkpoint in flight",
        ("proto-phase-graph",)),
    Mutant(
        "overlap-transition-undeclared", "core/versions.py",
        "        ProtocolState.OVERLAPPED,        # active epoch wrote it "
        "meanwhile\n",
        "",
        "a block rewritten while its NVM copy is checkpointed "
        "(test_versions_props' random walks)",
        ("proto-state-graph", "verify-state-graph")),
    Mutant(
        "commit-phase-edge-dropped", "core/epoch.py",
        "    Phase.CHECKPOINTING: {Phase.EXECUTING},   # checkpoint committed\n",
        "    Phase.CHECKPOINTING: set(),\n",
        "the first commit of any run raises ProtocolError",
        ("proto-phase-graph", "verify-phase-graph")),
    # --- race ----------------------------------------------------------
    Mutant(
        "persist-wakes-running-core", "cpu/core.py",
        "        self._persist_waiting = False\n"
        "        if self._parked:\n"
        "            self._parked = False\n"
        "            self.engine.schedule(0, self._step)\n",
        "        self._persist_waiting = False\n"
        "        self._parked = False\n"
        "        self.engine.schedule(0, self._step)\n",
        "a persist barrier that completes while a checkpoint stall has "
        "already resumed the core: two instruction streams run",
        ("race-same-cycle",)),
    # --- typestate -----------------------------------------------------
    Mutant(
        "read-after-crash-ungated", "core/lifecycle.py",
        "        if self._crashed:\n"
        "            raise CrashedError(\"read_block on a crashed controller\")\n",
        "",
        "read_block after crash(): it queues a read instead of raising "
        "CrashedError",
        ("typestate-crashed-use",)),
    Mutant(
        "thynvm-write-after-crash-ungated", "core/controller.py",
        "        if self._crashed:\n"
        "            raise CrashedError(\"write_block on a crashed controller\")\n"
        "        block = self.addresses.block_index(addr)\n"
        "        page = self.addresses.page_of_block(block)\n",
        "        block = self.addresses.block_index(addr)\n"
        "        page = self.addresses.page_of_block(block)\n",
        "write_block after crash(): it updates the tables of a dead "
        "controller instead of raising CrashedError",
        ("typestate-crashed-use",)),
    Mutant(
        "write-completion-cursor-reset", "mem/controller.py",
        "            state.record_write_latency(latency)\n"
        "            request.completed += 1\n",
        "            state.record_write_latency(latency)\n"
        "            request.completed = 1\n",
        "any bulk write run of three or more blocks: its fence count "
        "never reaches zero",
        ("typestate-cursor-monotonic",)),
    Mutant(
        "seed-cursor-aliasing", "sim/queueing.py",
        "request.serviced += 1",
        "request.serviced = request.completed",
        "any bulk run the fuzzer drives (the completion-path guard)",
        ("typestate-cursor-order",)),
    Mutant(
        "grow-refusal-discarded", "mem/controller.py",
        "        if queue.grow_bulk(request):\n"
        "            request.admit_times.append(self.engine.now)\n"
        "        else:\n"
        "            self._admit_fallback(state, queue, request)\n"
        "        self._kick_admit(state, request.bank)\n"
        "        return True\n",
        "        queue.grow_bulk(request)\n"
        "        request.admit_times.append(self.engine.now)\n"
        "        self._kick_admit(state, request.bank)\n"
        "        return True\n",
        "a checkpoint copy whose run is not the queue tail: the block is "
        "never written and the stage never finishes",
        ("typestate-grow-tail-only",)),
    Mutant(
        "block-data-appended", "mem/controller.py",
        "request.block_data[request.issued] = data",
        "request.block_data.append(data)",
        "any data-carrying bulk copy: every block stores the preallocated "
        "None",
        ("typestate-parallel-arrays",)),
    # --- verify --------------------------------------------------------
    Mutant(
        "seed-fixed-promotion-region", "core/controller.py",
        "stable = self._promotion_region(page)",
        "stable = REGION_B",
        "thynvm/hotpage:s1:e2:b16@stage-done.2#2+0",
        ("verify-committed-overwrite",)),
    Mutant(
        "seed-page-stage-at-committed", "core/controller.py",
        '    ("page", Dest.COMPLEMENT),\n',
        '    ("page", Dest.COMMITTED),\n',
        "thynvm/hotpage:s1:e2:b16@stage-done.2#2+0",
        ("verify-committed-overwrite",)),
    Mutant(
        "journal-home-before-log", "baselines/journaling.py",
        '    ("log", Dest.LOG),\n'
        '    ("home", Dest.HOME),\n',
        '    ("home", Dest.HOME),\n'
        '    ("log", Dest.LOG),\n',
        "a journal crash inside the in-place home stage, before the log "
        "is durable",
        ("verify-torn-recovery",)),
    Mutant(
        "plan-not-a-literal", "baselines/shadow.py",
        '    ("cpu", Dest.BACKUP),\n'
        '    ("page", Dest.COMPLEMENT),\n'
        ')\n',
        '    ("cpu", Dest.BACKUP),\n'
        '    ("page", Dest.COMPLEMENT),\n'
        ')[:]\n',
        # The same tuple at runtime; only a reader of the literal sees
        # a difference.
        None,
        ("verify-model-extraction",)),
    # --- the remaining seeded bugs -------------------------------------
    Mutant(
        "seed-wrong-region-snapshot", "core/controller.py",
        "        return MetaSnapshot(epoch=epoch, block_regions=blocks,\n",
        "        if blocks:\n"
        "            victim = max(blocks)\n"
        "            blocks[victim] = other_region(blocks[victim])\n"
        "        return MetaSnapshot(epoch=epoch, block_regions=blocks,\n",
        "any thynvm crash after a commit: recovery reads the stale copy "
        "of the highest remapped block",
        ()),
    Mutant(
        "seed-early-recovery-record", "core/controller.py",
        "        self.stats.ptt_peak_entries = self.ptt.peak_occupancy\n"
        "        return stages\n",
        "        self.stats.ptt_peak_entries = self.ptt.peak_occupancy\n"
        "        meta = self._snapshot(epoch)\n"
        "        for entry in self._plan_temp_entries + "
        "self._plan_pending_entries:\n"
        "            if entry.coop_page is None:\n"
        "                meta.block_regions[entry.block] = other_region(\n"
        "                    entry.stable_region)\n"
        "        for pe in self._plan_pages:\n"
        "            meta.page_regions[pe.page] = (\n"
        "                other_region(pe.stable_region), pe.dram_slot)\n"
        "        write_record(self.memctrl.functional_store(DeviceKind.NVM),"
        " meta)\n"
        "        return stages\n",
        "thynvm/sparse:s1:e2:b12@ckpt-start#1+0",
        ()),
)
