"""The shipped protocol, explored at runtime.

Every fuzz system's quick crash-plan space (both fuzz workloads, every
site its census sees; see ``exploration.py``) runs on the shipped tree
while its phase changes and per-block protocol states are recorded.
No plan may fail recovery, and every edge the runs take must be
declared in the static transition tables: ``PHASE_TRANSITIONS`` for
every system's epoch pipeline, and ``ALLOWED_TRANSITIONS`` for the
blocks of each system with a block translation table.  The controller
never consults ``ALLOWED_TRANSITIONS`` itself, so this is the check
that the table describes what the runtime does.
"""

from typing import Dict, List, NamedTuple, Set, Tuple

import pytest

from repro.baselines import journaling, shadow
from repro.core import controller
from repro.core.controller import ThyNVMController
from repro.core.epoch import PHASE_TRANSITIONS, EpochManager, Phase
from repro.core.versions import (ALLOWED_TRANSITIONS, ProtocolState,
                                 classify_block_state)
from repro.fuzz.plan import FUZZ_SYSTEMS
from repro.fuzz.runner import CrashInjector, FuzzResult

from .exploration import explore

#: Systems whose blocks live in a block translation table.  ThyNVM's
#: page-only ablation tracks pages, which leave the per-block machine.
BTT_SYSTEMS = ("thynvm", "thynvm_block_only")

PLANS = {
    "thynvm": controller.CHECKPOINT_PLAN,
    "thynvm_block_only": controller.CHECKPOINT_PLAN,
    "thynvm_page_only": controller.CHECKPOINT_PLAN,
    "journal": journaling.CHECKPOINT_PLAN,
    "shadow": shadow.CHECKPOINT_PLAN,
}


class Exploration(NamedTuple):
    results: List[FuzzResult]
    phase_edges: Set[Tuple[Phase, Phase]]
    state_edges: Set[Tuple[ProtocolState, ProtocolState]]


class EdgeRecorder:
    """Records every phase change and, after each write, phase change
    and probe, every block's change of protocol state."""

    def __init__(self) -> None:
        self.phase_edges: Set[Tuple[Phase, Phase]] = set()
        self.state_edges: Set[Tuple[ProtocolState, ProtocolState]] = set()
        self._controller = None
        self._states: Dict[int, ProtocolState] = {}

    def install(self, patch: pytest.MonkeyPatch) -> None:
        start, observe = CrashInjector.__init__, CrashInjector.observe
        set_phase = EpochManager._set_phase
        write_block = ThyNVMController.write_block

        def starting(injector, engine, ctl, plan):
            start(injector, engine, ctl, plan)
            self._controller, self._states = ctl, {}

        def probing(injector, kind, detail):
            observe(injector, kind, detail)
            self.sample()

        def phasing(manager, new):
            if manager.phase is not new:
                self.phase_edges.add((manager.phase, new))
            set_phase(manager, new)
            self.sample()

        def writing(ctl, *args, **kwargs):
            result = write_block(ctl, *args, **kwargs)
            self.sample()
            return result

        patch.setattr(CrashInjector, "__init__", starting)
        patch.setattr(CrashInjector, "observe", probing)
        patch.setattr(EpochManager, "_set_phase", phasing)
        patch.setattr(ThyNVMController, "write_block", writing)

    def sample(self) -> None:
        ctl = self._controller
        if not isinstance(ctl, ThyNVMController) or ctl.crashed:
            return
        blocks = set(self._states) | {entry.block for _index, entry in ctl.btt}
        for block in sorted(blocks):
            # Blocks inside PTT pages leave the per-block machine.
            if ctl.ptt.lookup(ctl.addresses.page_of_block(block)) is not None:
                continue
            state = classify_block_state(ctl.btt.lookup(block),
                                         ctl.epochs.active_epoch,
                                         ctl.epochs.ckpt_epoch)
            old = self._states.get(block, ProtocolState.HOME)
            if state is not old:
                self.state_edges.add((old, state))
            self._states[block] = state


@pytest.fixture(scope="module")
def explorations() -> Dict[str, Exploration]:
    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        for system in FUZZ_SYSTEMS:
            recorder = EdgeRecorder()
            recorder.install(patch)
            runs[system] = Exploration(explore(system),
                                       recorder.phase_edges,
                                       recorder.state_edges)
            patch.undo()
    return runs


def test_extracted_checkpoint_shape(explorations):
    # The declared plans keep the paper's stage order (Figure 6(b) for
    # ThyNVM) ...
    assert [(role, dest.name) for role, dest in controller.CHECKPOINT_PLAN] \
        == [("temp", "COMPLEMENT"), ("btt", "BACKUP"),
            ("page", "COMPLEMENT"), ("ptt", "BACKUP")]
    assert [(role, dest.name) for role, dest in journaling.CHECKPOINT_PLAN] \
        == [("cpu", "BACKUP"), ("log", "LOG"), ("home", "HOME")]
    assert [(role, dest.name) for role, dest in shadow.CHECKPOINT_PLAN] \
        == [("cpu", "BACKUP"), ("page", "COMPLEMENT")]
    # ... and every system's checkpoints finish exactly those stages.
    for system, exploration in explorations.items():
        finished = {key.partition(".")[2]
                    for result in exploration.results
                    for key in result.site_counts
                    if key.startswith("stage-done.")}
        assert finished == {str(index)
                            for index in range(len(PLANS[system]))}, system


@pytest.mark.parametrize("system", FUZZ_SYSTEMS)
def test_clean_tree_has_no_counterexamples(explorations, system):
    results = explorations[system].results
    assert [(result.plan, result.detail) for result in results
            if result.failed] == []
    crashed = [result for result in results if result.crash_cycle is not None]
    assert len(crashed) > 10


@pytest.mark.parametrize("system", FUZZ_SYSTEMS)
def test_explored_phase_edges_in_static_table(explorations, system):
    declared = {(old, new) for old, dests in PHASE_TRANSITIONS.items()
                for new in dests}
    explored = explorations[system].phase_edges
    assert explored - declared == set()
    # The plan space runs the whole pipeline, not a corner of it.
    assert explored == declared


@pytest.mark.parametrize("system", BTT_SYSTEMS)
def test_explored_state_edges_in_static_table(explorations, system):
    explored = explorations[system].state_edges
    assert explored, f"{system}: runs changed no block's protocol state"
    assert sorted((old.name, new.name) for old, new in explored
                  if new not in ALLOWED_TRANSITIONS.get(old, ())) == []
