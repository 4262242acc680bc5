"""The live controller stays inside the declared protocol machine.

``PHASE_TRANSITIONS`` (the epoch pipeline) and ``ALLOWED_TRANSITIONS``
(each block's protocol state) are the protocol's abstract machine.
This test drives a real ThyNVM controller through writes and epoch
boundaries, with each boundary forced while the previous checkpoint
may still be in flight, and asserts every *observed* phase edge and
per-block protocol-state edge is an edge of that machine.
"""

from repro.core.epoch import PHASE_TRANSITIONS, Phase
from repro.core.versions import ALLOWED_TRANSITIONS, classify_block_state

from ..conftest import make_direct, pad, run_until, settle, write_block

BLOCKS = 8


def _machine_edges():
    def edges(table):
        return {(old.name, new.name) for old, dests in table.items()
                for new in dests}
    return edges(PHASE_TRANSITIONS), edges(ALLOWED_TRANSITIONS)


def _observed_run():
    system = make_direct()
    ctl = system.ctl
    phase_edges = set()
    state_edges = set()

    original_set_phase = ctl.epochs._set_phase

    def recording_set_phase(new):
        old = ctl.epochs.phase
        if old is not new:
            phase_edges.add((old.name, new.name))
        original_set_phase(new)

    ctl.epochs._set_phase = recording_set_phase

    states = {block: "HOME" for block in range(BLOCKS)}

    def observe():
        for block in range(BLOCKS):
            if ctl.ptt.lookup(ctl.addresses.page_of_block(block)):
                continue
            state = classify_block_state(ctl.btt.lookup(block),
                                         ctl.epochs.active_epoch,
                                         ctl.epochs.ckpt_epoch).name
            if state != states[block]:
                state_edges.add((states[block], state))
                states[block] = state

    for epoch in range(3):
        for block in range(BLOCKS):
            write_block(system, block, pad(b"%d" % epoch))
            observe()
        settle(system.engine, 200_000)
        observe()
        run_until(system.engine,
                  lambda: ctl.epochs.phase is Phase.EXECUTING)
        observe()
        ctl.force_epoch_end("prop")
        observe()
        run_until(system.engine,
                  lambda: ctl.committed_meta.epoch >= epoch)
        observe()
    return phase_edges, state_edges


def test_runtime_edges_subset_of_abstract_exploration():
    machine_phase, machine_state = _machine_edges()
    observed_phase, observed_state = _observed_run()

    assert observed_phase, "run observed no phase transitions"
    assert observed_phase <= machine_phase, \
        f"undeclared phase edges: {sorted(observed_phase - machine_phase)}"

    assert observed_state, "run observed no protocol-state transitions"
    assert observed_state <= machine_state, \
        f"undeclared state edges: {sorted(observed_state - machine_state)}"
