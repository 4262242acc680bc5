"""Property tests: declared transition tables == enforced transition
tables.

``ALLOWED_TRANSITIONS`` (``core/versions.py``) is the per-block state
graph and ``PHASE_TRANSITIONS`` (``core/epoch.py``) the epoch pipeline's
phase graph; ``validate_transition`` and ``validate_phase_transition``
enforce them at runtime.  Over every (state, destination) pair each
validator must accept exactly the declared edges plus staying put.
Every state must be reachable from the initial one, and none may be
dead: once entered, some other state must be legal again, or the
protocol would wedge there.  Random walks driven through the
validators can only ever visit reachable states.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.epoch import (INITIAL_PHASE, PHASE_TRANSITIONS, Phase,
                              validate_phase_transition)
from repro.core.versions import (ALLOWED_TRANSITIONS, ProtocolState,
                                 validate_transition)
from repro.errors import ProtocolError


def reachable(table, initial):
    seen, frontier = {initial}, [initial]
    while frontier:
        for new in table.get(frontier.pop(), ()):
            if new not in seen:
                seen.add(new)
                frontier.append(new)
    return seen


def check_graph(members, table, validate, initial):
    accepted = set()
    for old in members:
        for new in members:
            try:
                validate(old, new)
            except ProtocolError:
                continue
            accepted.add((old, new))
    declared = {(old, new) for old, dests in table.items() for new in dests}
    assert accepted == declared | {(member, member) for member in members}
    assert reachable(table, initial) == set(members)
    assert [member for member in members
            if not set(table.get(member, ())) - {member}] == []


def walk(table, validate, initial, proposals):
    """Follow every proposal the validator accepts; each accepted move
    is a declared edge (or staying put) and lands on a reachable state."""
    reachable_states = reachable(table, initial)
    state = initial
    for proposal in proposals:
        try:
            validate(state, proposal)
        except ProtocolError:
            assert proposal not in table.get(state, ())
            continue
        if proposal is not state:
            assert proposal in table[state]
        state = proposal
        assert state in reachable_states


def test_static_state_graph_matches_runtime():
    check_graph(list(ProtocolState), ALLOWED_TRANSITIONS,
                validate_transition, ProtocolState.HOME)


def test_static_phase_graph_matches_runtime():
    check_graph(list(Phase), PHASE_TRANSITIONS, validate_phase_transition,
                INITIAL_PHASE)


@given(st.lists(st.sampled_from(sorted(ProtocolState, key=lambda s: s.name)),
                max_size=40))
@settings(max_examples=200, deadline=None)
def test_state_walks_stay_statically_reachable(proposals):
    walk(ALLOWED_TRANSITIONS, validate_transition, ProtocolState.HOME,
         proposals)


@given(st.lists(st.sampled_from(sorted(Phase, key=lambda p: p.name)),
                max_size=40))
@settings(max_examples=200, deadline=None)
def test_phase_walks_stay_statically_reachable(proposals):
    walk(PHASE_TRANSITIONS, validate_phase_transition, INITIAL_PHASE,
         proposals)
