"""Property test: every observed per-block protocol transition is legal.

Runs random write/epoch schedules against the controller while
monitoring each block's derived protocol state; any transition outside
the state machine of :mod:`repro.core.versions` fails the test.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.epoch import Phase
from repro.core.versions import classify_block_state, validate_transition

from ..conftest import make_direct, pad, run_until, settle, write_block

BLOCKS = 16


@given(st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, BLOCKS - 1)),
        st.tuples(st.just("epoch"), st.just(0)),
        st.tuples(st.just("run"), st.integers(1, 50_000)),
    ),
    min_size=1, max_size=60))
# A block rewritten while its NVM copy is checkpointed (NVM_CHECKPOINTING
# -> OVERLAPPED): random walks reach it only in most runs.
@example([("write", 0), ("epoch", 0), ("write", 0)])
@settings(max_examples=60, deadline=None)
def test_all_transitions_legal(script):
    system = make_direct()
    ctl = system.ctl
    states = {
        block: classify_block_state(None, 0, None) for block in range(BLOCKS)
    }

    def observe():
        for block in range(BLOCKS):
            # Blocks inside PTT pages leave the per-block machine.
            page = ctl.addresses.page_of_block(block)
            if ctl.ptt.lookup(page) is not None:
                continue
            state = classify_block_state(ctl.btt.lookup(block),
                                         ctl.epochs.active_epoch,
                                         ctl.epochs.ckpt_epoch)
            validate_transition(states[block], state)
            states[block] = state

    for op, value in script:
        if op == "write":
            write_block(system, value, pad(b"w"))
        elif op == "epoch":
            if ctl.epochs.phase is Phase.EXECUTING:
                ctl.force_epoch_end("prop")
        else:
            settle(system.engine, value)
        observe()
        ctl.validate()
    run_until(system.engine,
              lambda: ctl.epochs.phase is Phase.EXECUTING)
    observe()
    ctl.validate()
