"""Unit tests for address arithmetic."""

import pytest

from repro.config import small_test_config
from repro.errors import AddressError
from repro.mem.address import AddressMap


@pytest.fixture
def amap():
    return AddressMap(small_test_config())


def test_block_and_page_indexing(amap):
    assert amap.block_index(0) == 0
    assert amap.block_index(63) == 0
    assert amap.block_index(64) == 1
    assert amap.page_index(4095) == 0
    assert amap.page_index(4096) == 1


def test_block_page_relationship(amap):
    for block in (0, 1, 63, 64, 65, 1000):
        page = amap.page_of_block(block)
        assert block in amap.blocks_in_page(page)


def test_blocks_in_page_size(amap):
    blocks = amap.blocks_in_page(3)
    assert len(blocks) == 4096 // 64
    assert amap.page_of_block(blocks.start) == 3
    assert amap.page_of_block(blocks[-1]) == 3


def test_round_trip_addresses(amap):
    assert amap.block_addr(amap.block_index(12345)) == (12345 // 64) * 64
    assert amap.page_addr(amap.page_index(12345)) == (12345 // 4096) * 4096


def test_block_align(amap):
    assert amap.block_align(0) == 0
    assert amap.block_align(100) == 64
    assert amap.block_align(64) == 64


def test_check_bounds(amap):
    amap.check(0)
    amap.check(amap.physical_bytes - 1)
    with pytest.raises(AddressError):
        amap.check(amap.physical_bytes)
    with pytest.raises(AddressError):
        amap.check(-1)
