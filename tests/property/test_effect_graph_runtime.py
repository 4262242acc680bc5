"""Static effect classification vs. live simulation.

Two pins between ``repro.analysis.effects`` and the running system:

1. **Superset**: every write effect *observed* at runtime (who called
   ``_issue_write`` / ``_issue_fire_and_forget`` / ``_table_persist_jobs``,
   and against which device) must be *predicted* by the static
   classification of that caller.  The classification is the fuzzer's
   static crash surface (``repro.fuzz.sites``); a runtime effect with
   no static counterpart would leave it working on a fiction.
2. **Data before metadata** (paper §4.4): every NVM write outstanding
   when the pre-commit fence is issued is serviced before the commit
   record goes out.  This half is a runtime check only.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import Effect, EffectGraph
from repro.analysis.context import load_module
from repro.core.checkpoint import CheckpointRun
from repro.core.controller import ThyNVMController
from repro.mem.controller import DeviceKind
from repro.sim.request import Origin

from ..conftest import end_epoch, make_direct, read_block, settle, write_block

SRC = Path(repro.__file__).parent

WRITE_EFFECTS = {Effect.DATA_WRITE, Effect.VOLATILE_WRITE}


def _static_effects_by_name():
    modules = [load_module(path) for path in sorted(SRC.rglob("*.py"))]
    graph = EffectGraph.build(modules)
    by_name = {}
    for info in graph.functions.values():
        by_name.setdefault(info.name, set()).update(
            event.effect for event in info.events)
    return by_name


STATIC = _static_effects_by_name()


@pytest.fixture
def traced_system(monkeypatch):
    observed = []

    def trace(method_name):
        original = getattr(ThyNVMController, method_name)

        def wrapper(self, *args, **kwargs):
            caller = sys._getframe(1).f_code.co_name
            observed.append((caller, method_name, args, kwargs))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ThyNVMController, method_name, wrapper)

    for name in ("_issue_write", "_issue_fire_and_forget",
                 "_table_persist_jobs"):
        trace(name)

    system = make_direct()
    system.observed = observed
    return system


def _drive(system):
    for block in range(8):
        write_block(system, block, bytes([block]))
    settle(system.engine)
    end_epoch(system)
    for block in range(4):
        write_block(system, block, bytes([0x40 + block]))
        assert read_block(system, block) == bytes(
            [0x40 + block]).ljust(system.config.block_bytes, b"\0")
    end_epoch(system)
    end_epoch(system)


def test_runtime_write_effects_are_statically_predicted(traced_system):
    _drive(traced_system)
    assert traced_system.observed, "workload produced no write effects"
    seen_callers = set()
    for caller, method, args, kwargs in traced_system.observed:
        assert caller in STATIC, (
            f"runtime caller {caller!r} unknown to the static graph")
        effects = STATIC[caller]
        seen_callers.add(caller)
        if method == "_table_persist_jobs":
            assert Effect.TABLE_PERSIST in effects, caller
            continue
        kind = args[0] if args else kwargs.get("kind")
        if method == "_issue_fire_and_forget":
            is_write = args[2] if len(args) > 2 else kwargs.get("is_write")
            if not is_write:
                continue            # reads carry no write effect
        if kind is DeviceKind.NVM:
            # A durable write must be statically durable — never
            # downgraded to a volatile effect.
            assert Effect.DATA_WRITE in effects, (caller, effects)
        else:
            assert effects & WRITE_EFFECTS, (caller, effects)
    # The workload exercised more than one distinct static call site.
    assert len(seen_callers) >= 2


def test_nvm_queue_is_drained_at_every_commit_record(monkeypatch):
    """The drive leaves writes queued at the fence: stores issued while
    the previous checkpoint is in flight are still in the NVM write
    queue when its last stage completes.  At the fence the test records
    every outstanding NVM write, a single request or a bulk run with
    the blocks it has admitted so far; the commit record may go out
    only once each of them has completed.  Writes submitted after the
    fence may still be queued at the commit."""
    fences = []
    commits = []
    drain_and_commit = CheckpointRun._drain_and_commit
    write_commit = CheckpointRun._write_commit

    def fenced(self):
        state = self.memctrl._nvm
        outstanding = list(state.write_queue.items()) + [
            request for _event, request in state.active.values()
            if request.is_write]
        singles = [request for request in outstanding if request.total == 1]
        runs = {id(request): (request, request.serviced + request.queued)
                for request in outstanding if request.total > 1}
        fences.append((singles, list(runs.values())))
        return drain_and_commit(self)

    def committing(self):
        singles, runs = fences[-1]
        unserviced = [request.req_id for request in singles
                      if request.complete_time is None]
        unserviced += [f"run {request.req_id}: {admitted - request.completed}"
                       f" block(s)" for request, admitted in runs
                       if request.completed < admitted]
        assert not unserviced, (
            f"commit record issued before fenced NVM writes completed: "
            f"{unserviced}")
        commits.append(len(singles) + len(runs))
        return write_commit(self)

    monkeypatch.setattr(CheckpointRun, "_drain_and_commit", fenced)
    monkeypatch.setattr(CheckpointRun, "_write_commit", committing)

    system = make_direct()
    for block in range(64):
        write_block(system, block, bytes([block]))
    end_epoch(system, wait_commit=False)
    for block in range(64):
        write_block(system, 1000 + 7 * block, bytes([block]))
    end_epoch(system)
    end_epoch(system)
    settle(system.engine)
    assert len(commits) >= 3
    # The drive tests the fence only if it left writes outstanding.
    assert max(commits) > 0


def test_static_graph_classifies_the_controller_pipeline():
    # The functions the runtime test hooks must exist statically with
    # the effects the hooks assume; if the controller is refactored this
    # pins the two tests together.
    for name in ("_issue_write", "_issue_fire_and_forget",
                 "_table_persist_jobs"):
        assert name in STATIC, f"hooked method {name!r} vanished"
    assert any(Effect.TABLE_PERSIST in effects for effects in STATIC.values())
    assert any(Effect.COMMIT in effects for effects in STATIC.values())
    assert any(Effect.FENCE in effects for effects in STATIC.values())
    # _drain_and_commit is where the commit fence is issued.
    assert Effect.FENCE in STATIC["_drain_and_commit"]
