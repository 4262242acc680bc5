"""Tests for the uniform-granularity ThyNVM ablations."""

import pytest

from repro.baselines.single_granularity import (block_only_policy,
                                                page_only_policy)
from repro.core.controller import ThyNVMPolicy
from repro.errors import SimulationError

from ..conftest import end_epoch, make_direct, pad, settle, write_block


def test_block_only_never_promotes():
    s = make_direct(policy=block_only_policy())
    first = 2 * s.config.blocks_per_page
    for offset in range(s.config.blocks_per_page):
        write_block(s, first + offset, bytes([offset]))
    settle(s.engine)
    end_epoch(s)
    end_epoch(s)
    assert len(s.ctl.ptt) == 0
    assert s.stats.pages_promoted == 0
    for offset in range(s.config.blocks_per_page):
        assert s.ctl.visible_block_bytes(first + offset) == pad(bytes([offset]))


def test_page_only_adopts_on_first_write():
    s = make_direct(policy=page_only_policy())
    write_block(s, 5, b"adopt")
    settle(s.engine)
    page = s.ctl.addresses.page_of_block(5)
    assert page in s.ctl.ptt
    assert len(s.ctl.btt) == 0
    assert s.ctl.visible_block_bytes(5) == pad(b"adopt")


def test_page_only_checkpoints_full_pages():
    s = make_direct(policy=page_only_policy())
    write_block(s, 5, b"one")            # single dirty block
    settle(s.engine)
    end_epoch(s)
    assert (s.stats.nvm_writes.get("checkpoint")
            >= s.config.blocks_per_page)


def test_page_only_survives_crash_at_commit():
    s = make_direct(policy=page_only_policy())
    write_block(s, 5, b"v1")
    settle(s.engine)
    end_epoch(s)
    s.ctl.crash()
    recovered = s.ctl.recover()
    assert recovered.visible_block(5) == pad(b"v1")


def test_invalid_policy_combinations_rejected():
    with pytest.raises(SimulationError):
        ThyNVMPolicy(enable_page_writeback=False,
                     enable_block_remapping=False)
