"""Checkpoint archiving for software-bug tolerance (§6).

The paper suggests that ThyNVM "can be extended to help enhance bug
tolerance, e.g., by copying checkpoints to secondary storage
periodically and devising mechanisms to find and recover to past
bug-free checkpoints."  :class:`CheckpointArchive` implements that
extension: it hooks the controller's commits, copies every Nth
committed checkpoint's functional image (and metadata) to a simulated
secondary store, and can roll the analysis back to *any* archived
epoch — not just the last one or two the in-NVM protocol retains.

Archiving a checkpoint costs one sequential read of the image from NVM
(accounted as timed MIGRATION reads when ``timed`` is enabled), which
in a real system would stream to an SSD in the background.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import RecoveryError
from ..mem.controller import DeviceKind
from ..sim.request import Origin
from .controller import ThyNVMController
from .recovery import block_address


class ArchivedCheckpoint:
    """One archived epoch: a frozen physical-memory image."""

    def __init__(self, epoch: int, image: Dict[int, bytes],
                 zero_block: bytes) -> None:
        self.epoch = epoch
        self._image = image
        self._zero = zero_block

    def visible_block(self, block: int) -> bytes:
        return self._image.get(block, self._zero)

    def blocks(self) -> Dict[int, bytes]:
        return dict(self._image)


class CheckpointArchive:
    """Periodically copies committed checkpoints to secondary storage."""

    def __init__(self, controller: ThyNVMController, every_n_epochs: int = 1,
                 num_blocks: Optional[int] = None, timed: bool = False,
                 max_checkpoints: int = 64) -> None:
        if every_n_epochs <= 0:
            raise RecoveryError("every_n_epochs must be positive")
        self.controller = controller
        self.every_n_epochs = every_n_epochs
        self.num_blocks = (num_blocks if num_blocks is not None
                           else controller.config.physical_blocks)
        self.timed = timed
        self.max_checkpoints = max_checkpoints
        self._checkpoints: List[ArchivedCheckpoint] = []
        # Hook the commit path non-invasively.
        self._original_commit = controller._on_commit
        controller._on_commit = self._on_commit_hook

    # --- commit hook ----------------------------------------------------

    def _on_commit_hook(self) -> None:
        self._original_commit()
        epoch = self.controller.committed_meta.epoch
        if epoch < 0 or epoch % self.every_n_epochs != 0:
            return
        if self._checkpoints and self._checkpoints[-1].epoch == epoch:
            return
        self._archive(epoch)

    def _archive(self, epoch: int) -> None:
        ctl = self.controller
        meta = ctl.committed_meta
        nvm = ctl.memctrl.functional_store(DeviceKind.NVM)
        zero = bytes(ctl.config.block_bytes)
        image: Dict[int, bytes] = {}
        for block in range(self.num_blocks):
            addr = block_address(meta, ctl.layout, ctl.addresses, block)
            data = nvm.read(addr)
            if data != zero:
                image[block] = data
            if self.timed:
                ctl._issue_fire_and_forget(DeviceKind.NVM, addr,
                                           False, Origin.MIGRATION)
        self._checkpoints.append(ArchivedCheckpoint(epoch, image, zero))
        if len(self._checkpoints) > self.max_checkpoints:
            self._checkpoints.pop(0)

    # --- queries -----------------------------------------------------------

    @property
    def archived_epochs(self) -> List[int]:
        return [checkpoint.epoch for checkpoint in self._checkpoints]

    def recover_to(self, epoch: int) -> ArchivedCheckpoint:
        """Roll back to a specific archived epoch (bug-tolerance path)."""
        for checkpoint in self._checkpoints:
            if checkpoint.epoch == epoch:
                return checkpoint
        raise RecoveryError(f"epoch {epoch} is not archived "
                            f"(have {self.archived_epochs})")

    def latest_before(self, epoch: int) -> ArchivedCheckpoint:
        """The newest archived checkpoint at or before ``epoch`` — the
        'find a past bug-free checkpoint' primitive."""
        best = None
        for checkpoint in self._checkpoints:
            if checkpoint.epoch <= epoch:
                best = checkpoint
        if best is None:
            raise RecoveryError(f"no archived checkpoint at or before {epoch}")
        return best
