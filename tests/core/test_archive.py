"""Tests for the §6 bug-tolerance checkpoint archive."""

import pytest

from repro.config import small_test_config
from repro.core.archive import CheckpointArchive
from repro.errors import RecoveryError

from ..conftest import MANUAL_EPOCHS, end_epoch, make_direct, pad, write_block


def test_archive_captures_every_commit():
    s = make_direct()
    archive = CheckpointArchive(s.ctl, every_n_epochs=1, num_blocks=16)
    for epoch in range(3):
        write_block(s, epoch, f"e{epoch}".encode())
        end_epoch(s)
    assert archive.archived_epochs == [0, 1, 2]


def test_recover_to_past_epoch():
    """The bug-tolerance scenario: epoch 2 contains the 'bug'; roll
    back beyond what the in-NVM protocol retains."""
    s = make_direct()
    archive = CheckpointArchive(s.ctl, num_blocks=16)
    write_block(s, 0, b"good-v1")
    end_epoch(s)                      # epoch 0
    write_block(s, 0, b"good-v2")
    end_epoch(s)                      # epoch 1
    write_block(s, 0, b"BUGGY!")
    end_epoch(s)                      # epoch 2
    # Normal recovery only reaches the newest commit...
    s.ctl.crash()
    assert s.ctl.recover().visible_block(0) == pad(b"BUGGY!")
    # ...the archive reaches any of them.
    assert archive.recover_to(0).visible_block(0) == pad(b"good-v1")
    assert archive.recover_to(1).visible_block(0) == pad(b"good-v2")
    assert archive.latest_before(1).epoch == 1


def test_archive_respects_period():
    s = make_direct()
    archive = CheckpointArchive(s.ctl, every_n_epochs=2, num_blocks=8)
    for epoch in range(5):
        write_block(s, 0, bytes([epoch + 1]))
        end_epoch(s)
    assert archive.archived_epochs == [0, 2, 4]


def test_archive_bounds_retention():
    s = make_direct()
    archive = CheckpointArchive(s.ctl, num_blocks=4, max_checkpoints=2)
    for epoch in range(4):
        write_block(s, 0, bytes([epoch + 1]))
        end_epoch(s)
    assert archive.archived_epochs == [2, 3]
    with pytest.raises(RecoveryError):
        archive.recover_to(0)


def test_archive_image_covers_pages_and_blocks():
    s = make_direct()
    per_page = s.config.blocks_per_page
    archive = CheckpointArchive(s.ctl, num_blocks=3 * per_page)
    # Hot page (page writeback) + sparse block (block remapping).
    first = 2 * per_page
    for offset in range(per_page):
        write_block(s, first + offset, bytes([offset + 1]))
    write_block(s, 1, b"sparse")
    end_epoch(s)
    end_epoch(s)   # page promoted at commit 0; image at commit 1
    checkpoint = archive.latest_before(10)
    assert checkpoint.visible_block(1) == pad(b"sparse")
    assert checkpoint.visible_block(first + 3) == pad(bytes([4]))


def test_invalid_period_rejected():
    s = make_direct()
    with pytest.raises(RecoveryError):
        CheckpointArchive(s.ctl, every_n_epochs=0)


def test_unarchived_block_reads_as_one_zero_block():
    """A block the image never captured reads back at the configured
    block size, exactly as §4.5 recovery returns it."""
    s = make_direct(small_test_config(block_bytes=128,
                                      epoch_cycles=MANUAL_EPOCHS))
    archive = CheckpointArchive(s.ctl, num_blocks=4)
    write_block(s, 0, b"kept")
    end_epoch(s)
    s.ctl.crash()
    recovered = s.ctl.recover()
    checkpoint = archive.recover_to(0)
    assert checkpoint.visible_block(0) == pad(b"kept", 128)
    assert checkpoint.visible_block(2) == bytes(128) == \
        recovered.visible_block(2)
