"""Seeded defects, one source patch each, for the mutant x detector matrix.

Each :class:`Mutant` replaces one ``anchor`` string, which must occur
exactly once in ``file`` (relative to ``src/repro/``), with
``replacement``.  ``exposed_by`` names the input that shows the defect.

``tests/mutants/run.py`` applies each patch to a fresh copy of the tree
and runs every CI detector on it (docs/ANALYSIS.md, "Catch matrix").
``tests/mutants/test_catalogue.py`` keeps every anchor applicable.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    anchor: str
    replacement: str
    exposed_by: str


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
    # --- exports and port signatures ----------------------------------
    Mutant(
        "all-lists-missing-name", "core/__init__.py",
        '    "validate_transition",\n',
        '    "validate_transitions",\n',
        "`from repro.core import *` raises AttributeError "
        "(tests/test_exports.py)"),
    Mutant(
        "port-signature-swapped", "baselines/ideal.py",
        "                    data: Optional[bytes] = None,\n"
        "                    callback=None, on_accept=None) -> None:\n",
        "                    callback=None, data: Optional[bytes] = None,\n"
        "                    on_accept=None) -> None:\n",
        "a positional write_block(addr, origin, data) on an ideal system "
        "stores nothing and calls its payload "
        "(test_port_conformance.py::test_write_without_callbacks_is_fine)"),
    # --- determinism --------------------------------------------------
    Mutant(
        "engine-host-deadline", "sim/engine.py",
        "        now = self.now\n"
        "        try:\n"
        "            while queue:\n",
        "        now = self.now\n"
        "        from time import perf_counter\n"
        "        deadline = perf_counter() + 600.0\n"
        "        try:\n"
        "            while queue and perf_counter() < deadline:\n",
        "any run longer than 600 s of host time (a loaded host, a "
        "profiler) stops early and reports different cycles"),
    Mutant(
        "evict-order-shuffled", "core/controller.py",
        "            candidates = [entry for _block, entry in self.btt\n"
        "                          if entry.is_idle]\n",
        "            candidates = [entry for _block, entry in self.btt\n"
        "                          if entry.is_idle]\n"
        "            import random\n"
        "            random.shuffle(candidates)\n",
        "the emergency-eviction cells (`@btt256`) evict different victims "
        "on every run"),
    Mutant(
        "queue-tail-by-id", "sim/queueing.py",
        'key=attrgetter("age"))',
        "key=id)",
        "a bulk run that outlives the queue's youngest entry re-finds the "
        "tail by address, not age, and grows out of FIFO order"),
    Mutant(
        "plan-walked-as-set", "core/controller.py",
        "        for role, dest in self.PLAN:\n",
        "        for role, dest in set(self.PLAN):\n",
        "the stage order follows the string hash, so it changes with "
        "PYTHONHASHSEED"),
    # --- persist ordering ---------------------------------------------
    Mutant(
        "commit-without-fence", "core/checkpoint.py",
        "self.memctrl.fence_writes(DeviceKind.NVM, self._write_commit)",
        "self._write_commit()",
        "NVM writes queued at the fence (the drive of "
        "test_nvm_queue_is_drained_at_every_commit_record): the commit "
        "record overtakes them"),
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
        "(test_hazard_windows.py::test_gc_dropped_block_reads_from_home)"),
    # --- protocol tables and phases -----------------------------------
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
        "block still remapped to a region"),
    Mutant(
        "checkpoint-phase-skipped", "core/epoch.py",
        "        self._set_phase(Phase.CHECKPOINTING)\n",
        "        self.phase = Phase.EXECUTING\n",
        "the first commit of any run: it finds no checkpoint in flight"),
    Mutant(
        "overlap-transition-undeclared", "core/versions.py",
        "        ProtocolState.OVERLAPPED,        # active epoch wrote it "
        "meanwhile\n",
        "",
        "a block rewritten while its NVM copy is checkpointed "
        "(test_versions_props' random walks)"),
    Mutant(
        "commit-phase-edge-dropped", "core/epoch.py",
        "    Phase.CHECKPOINTING: {Phase.EXECUTING},   # checkpoint committed\n",
        "    Phase.CHECKPOINTING: set(),\n",
        "the first commit of any run raises ProtocolError"),
    # --- same-cycle events --------------------------------------------
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
        "already resumed the core: two instruction streams run"),
    Mutant(
        "advance-overtakes-same-cycle-event", "sim/engine.py",
        "        if time > self._horizon or (queue and queue[0][0] <= time):\n",
        "        if time > self._horizon or (queue and queue[0][0] < time):\n",
        "a core step due at the cycle of an event queued before it fires "
        "in place, ahead of that event "
        "(test_inline_core_equivalence.py)"),
    # --- crash gates and bulk-run cursors -----------------------------
    Mutant(
        "read-after-crash-ungated", "core/lifecycle.py",
        "        if self._crashed:\n"
        "            raise CrashedError(\"read_block on a crashed controller\")\n",
        "",
        "read_block after crash(): it queues a read instead of raising "
        "CrashedError"),
    Mutant(
        "thynvm-write-after-crash-ungated", "core/controller.py",
        "        if self._crashed:\n"
        "            raise CrashedError(\"write_block on a crashed controller\")\n"
        "        block = self.addresses.block_index(addr)\n"
        "        page = self.addresses.page_of_block(block)\n",
        "        block = self.addresses.block_index(addr)\n"
        "        page = self.addresses.page_of_block(block)\n",
        "write_block after crash(): it updates the tables of a dead "
        "controller instead of raising CrashedError"),
    Mutant(
        "write-completion-cursor-reset", "mem/controller.py",
        "            state.record_write_latency(latency)\n"
        "            request.completed += 1\n",
        "            state.record_write_latency(latency)\n"
        "            request.completed = 1\n",
        "any bulk write run of three or more blocks: its fence count "
        "never reaches zero"),
    Mutant(
        "seed-cursor-aliasing", "sim/queueing.py",
        "request.serviced += 1",
        "request.serviced = request.completed",
        "any bulk run the fuzzer drives (the completion-path guard)"),
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
        "never written and the stage never finishes"),
    Mutant(
        "block-data-appended", "mem/controller.py",
        "request.block_data[request.issued] = data",
        "request.block_data.append(data)",
        "any data-carrying bulk copy: every block stores the preallocated "
        "None"),
    # --- checkpoint plans ---------------------------------------------
    Mutant(
        "seed-fixed-promotion-region", "core/controller.py",
        "stable = self._promotion_region(page)",
        "stable = REGION_B",
        "thynvm/hotpage:s1:e2:b16@stage-done.2#2+0"),
    Mutant(
        "seed-page-stage-at-committed", "core/controller.py",
        '    ("page", Dest.COMPLEMENT),\n',
        '    ("page", Dest.COMMITTED),\n',
        "thynvm/hotpage:s1:e2:b16@stage-done.2#2+0"),
    Mutant(
        "page-writeback-run-short", "core/controller.py",
        "                count=self.config.blocks_per_page,\n",
        "                count=self.config.blocks_per_page - 1,\n",
        "any ThyNVM page checkpoint: its run stops one block short, so "
        "the page's last block is never written back "
        "(test_thynvm_page_run_equivalence.py)"),
    Mutant(
        "journal-home-before-log", "baselines/journaling.py",
        '    ("log", Dest.LOG),\n'
        '    ("home", Dest.HOME),\n',
        '    ("home", Dest.HOME),\n'
        '    ("log", Dest.LOG),\n',
        "a journal crash inside the in-place home stage, before the log "
        "is durable"),
    # --- recovery records and crash -----------------------------------
    Mutant(
        "seed-wrong-region-snapshot", "core/controller.py",
        "        return MetaSnapshot(epoch=epoch, block_regions=blocks,\n",
        "        if blocks:\n"
        "            victim = max(blocks)\n"
        "            blocks[victim] = other_region(blocks[victim])\n"
        "        return MetaSnapshot(epoch=epoch, block_regions=blocks,\n",
        "any thynvm crash after a commit: recovery reads the stale copy "
        "of the highest remapped block"),
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
        "thynvm/sparse:s1:e2:b12@ckpt-start#1+0"),
    Mutant(
        "crash-keeps-inflight", "mem/controller.py",
        "            for entry, request in state.active.values():\n"
        "                self.engine.cancel(entry)\n"
        "                if request.total > 1:\n"
        "                    request.fences.clear()\n"
        "            state.active.clear()\n",
        "            for entry, request in state.active.values():\n"
        "                if request.total > 1:\n"
        "                    request.fences.clear()\n",
        "a write in service at power loss still completes after the "
        "crash and lands in NVM (test_controller.py::"
        "test_crash_cancels_every_in_flight_completion)"),
)
