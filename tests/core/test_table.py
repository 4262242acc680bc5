"""Unit tests for the translation tables (BTT/PTT)."""

from repro.core.btt import BlockTranslationTable
from repro.core.metadata import BlockEntry
from repro.core.ptt import PageTranslationTable
from repro.core.regions import REGION_A, REGION_B
from repro.core.table import TranslationTable


def test_insert_and_lookup():
    table = TranslationTable("t", 4, 8)
    assert table.insert(1, "a")
    assert table.get(1) == "a"
    assert 1 in table
    assert len(table) == 1


def test_capacity_enforced():
    table = TranslationTable("t", 2, 8)
    assert table.insert(1, "a")
    assert table.insert(2, "b")
    assert table.full
    assert not table.insert(3, "c")
    assert table.insert_failures == 1
    # Overwriting an existing index is always allowed.
    assert table.insert(1, "a2")


def test_remove_frees_space():
    table = TranslationTable("t", 1, 8)
    table.insert(1, "a")
    assert table.remove(1) == "a"
    assert table.remove(1) is None
    assert table.insert(2, "b")


def test_peak_occupancy():
    table = TranslationTable("t", 4, 8)
    for i in range(3):
        table.insert(i, i)
    table.remove(0)
    assert table.peak_occupancy == 3


def test_dirty_tracking_and_persist_bytes():
    table = TranslationTable("t", 8, 7)
    table.insert(1, "a")
    table.insert(2, "b")
    assert table.dirty_count() == 2
    assert table.persist_bytes() == 14
    table.clear_dirty()
    assert table.persist_bytes() == 0
    table.mark_dirty(1)
    assert table.dirty_count() == 1
    # Removals must be persisted too.
    table.remove(2)
    assert table.dirty_count() == 2


def test_btt_create_defaults_to_home():
    btt = BlockTranslationTable(4, 7)
    entry = btt.create(10)
    assert entry is not None
    assert entry.stable_region == REGION_B
    assert btt.lookup(10) is entry


def test_btt_create_with_region_hint():
    btt = BlockTranslationTable(4, 7)
    entry = btt.create(10, REGION_A)
    assert entry.stable_region == REGION_A


def test_btt_create_on_full_returns_none():
    btt = BlockTranslationTable(1, 7)
    assert btt.create(0) is not None
    assert btt.create(1) is None


def test_ptt_create():
    ptt = PageTranslationTable(4, 6)
    entry = ptt.create(3, dram_slot=7, stable_region=REGION_B)
    assert entry.page == 3
    assert entry.dram_slot == 7
    assert not entry.is_dirty


def test_block_entry_store_counter_saturates():
    entry = BlockEntry(block=0, stable_region=REGION_B)
    for _ in range(100):
        entry.bump_store(epoch=5)
    assert entry.store_count == 63          # 6-bit counter (Fig. 5)
    assert entry.last_write_epoch == 5


def test_snapshot_is_shallow_copy():
    table = TranslationTable("t", 4, 8)
    table.insert(1, "a")
    snap = table.snapshot()
    table.remove(1)
    assert snap == {1: "a"}
