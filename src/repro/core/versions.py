"""The checkpointing protocol's per-block state machine.

The paper compresses each BTT/PTT entry's (Version ID, Visible Memory
Region ID, Checkpoint Region ID) fields into seven states with a formal
protocol (its online supplement [65, 66]).  We reconstruct that machine
here: :func:`classify_block_state` derives the protocol state of a
block from its live entry plus the epoch context, and
:data:`ALLOWED_TRANSITIONS` encodes which state changes are legal.
Property-based tests drive random workloads and assert that every
observed transition is allowed — a lightweight, executable analogue of
the paper's formal verification.
"""

from __future__ import annotations

import enum
from typing import Optional

from ..errors import ProtocolError
from .metadata import BlockEntry


class ProtocolState(enum.Enum):
    """The seven per-block protocol states (+ the untracked HOME state)."""

    HOME = "home"
    # Tracked, no working copy: the last checkpoint is the visible copy.
    CLEAN = "clean"
    # Working copy written directly in NVM (no checkpoint was in flight).
    NVM_WORKING = "nvm_working"
    # That NVM working copy's epoch ended; its metadata is being persisted.
    NVM_CHECKPOINTING = "nvm_checkpointing"
    # Working copy buffered in a DRAM temp slot (checkpoint was in flight).
    DRAM_TEMP = "dram_temp"
    # The DRAM temp copy's epoch ended; it is being copied to NVM.
    DRAM_CHECKPOINTING = "dram_checkpointing"
    # A copy is being checkpointed AND the active epoch wrote a newer one.
    OVERLAPPED = "overlapped"


# Legal transitions.  Self-loops (repeated writes, repeated epochs with
# no activity) are always legal and are not listed.
ALLOWED_TRANSITIONS = {
    ProtocolState.HOME: {
        ProtocolState.NVM_WORKING,      # first write, no ckpt in flight
        ProtocolState.DRAM_TEMP,        # first write during a checkpoint
    },
    ProtocolState.CLEAN: {
        ProtocolState.NVM_WORKING,
        ProtocolState.DRAM_TEMP,
        ProtocolState.HOME,             # consolidated back to home (GC)
    },
    ProtocolState.NVM_WORKING: {
        ProtocolState.NVM_CHECKPOINTING,  # its epoch ended
    },
    ProtocolState.NVM_CHECKPOINTING: {
        ProtocolState.CLEAN,             # commit, no new writes
        ProtocolState.OVERLAPPED,        # active epoch wrote it meanwhile
    },
    ProtocolState.DRAM_TEMP: {
        ProtocolState.DRAM_CHECKPOINTING,  # its epoch ended
    },
    ProtocolState.DRAM_CHECKPOINTING: {
        ProtocolState.CLEAN,
        ProtocolState.OVERLAPPED,
    },
    ProtocolState.OVERLAPPED: {
        ProtocolState.DRAM_TEMP,         # commit; newer copy remains in DRAM
    },
}


def classify_block_state(
    entry: Optional[BlockEntry],
    active_epoch: int,
    ckpt_epoch: Optional[int],
) -> ProtocolState:
    """Derive the protocol state of a block from its live metadata.

    ``ckpt_epoch`` is the epoch currently in its checkpointing phase,
    or ``None`` when no checkpoint is in flight.
    """
    if entry is None:
        return ProtocolState.HOME

    has_active_temp = active_epoch in entry.temp_epochs
    has_ckpt_temp = (ckpt_epoch is not None
                     and ckpt_epoch in entry.temp_epochs)
    pending_is_ckpt = (ckpt_epoch is not None
                       and entry.pending_epoch == ckpt_epoch)
    pending_is_active = entry.pending_epoch == active_epoch

    being_checkpointed = has_ckpt_temp or pending_is_ckpt

    if being_checkpointed and has_active_temp:
        return ProtocolState.OVERLAPPED
    if has_ckpt_temp:
        return ProtocolState.DRAM_CHECKPOINTING
    if pending_is_ckpt:
        return ProtocolState.NVM_CHECKPOINTING
    if has_active_temp:
        return ProtocolState.DRAM_TEMP
    if pending_is_active:
        return ProtocolState.NVM_WORKING
    if entry.pending_epoch is not None or entry.temp_epochs:
        raise ProtocolError(
            f"block {entry.block}: stale working copies "
            f"(pending={entry.pending_epoch}, temps={entry.temp_epochs}, "
            f"active={active_epoch}, ckpt={ckpt_epoch})")
    return ProtocolState.CLEAN


def validate_transition(old: ProtocolState, new: ProtocolState) -> None:
    """Raise :class:`ProtocolError` if ``old -> new`` is illegal."""
    if old is new:
        return
    if new not in ALLOWED_TRANSITIONS.get(old, set()):
        raise ProtocolError(f"illegal protocol transition {old.value} -> {new.value}")
