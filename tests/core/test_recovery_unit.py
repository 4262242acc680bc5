"""Unit tests for the recovery module in isolation."""

import pytest

from repro.config import SystemConfig, small_test_config
from repro.core.recovery import (MetaSnapshot, decode_record, encode_record,
                                 read_record, recover, write_record)
from repro.core.regions import REGION_A, REGION_B, HardwareLayout
from repro.cpu.state import CpuState
from repro.errors import RecoveryError
from repro.mem.controller import DeviceKind, MemoryController
from repro.mem.datastore import META_PAYLOAD_MAX, FunctionalStore
from repro.sim.engine import Engine
from repro.stats.collector import StatsCollector


@pytest.fixture
def setup():
    config = small_test_config()
    engine = Engine()
    memctrl = MemoryController(engine, config, StatsCollector())
    layout = HardwareLayout(config)
    return config, memctrl, layout


def recover_with(config, memctrl, meta):
    write_record(memctrl.functional_store(DeviceKind.NVM), meta)
    return recover(config, memctrl)


def test_recover_without_record_is_pristine_home(setup):
    config, memctrl, layout = setup
    nvm = memctrl.functional_store(DeviceKind.NVM)
    nvm.write(layout.home_block_addr(7), b"h" * 64)
    nvm.write(layout.region_block_addr(REGION_A, 7), b"a" * 64)
    state = recover(config, memctrl)
    assert state.epoch == -1
    assert state.cpu_state is None
    assert state.visible_block(7) == b"h" * 64


def test_untracked_blocks_resolve_to_home(setup):
    config, memctrl, layout = setup
    nvm = memctrl.functional_store(DeviceKind.NVM)
    nvm.write(layout.home_block_addr(7), b"h" * 64)
    state = recover_with(config, memctrl, MetaSnapshot(epoch=0))
    assert state.visible_block(7) == b"h" * 64
    assert state.visible_block(8) == bytes(64)


def test_block_entries_resolve_to_their_region(setup):
    config, memctrl, layout = setup
    nvm = memctrl.functional_store(DeviceKind.NVM)
    nvm.write(layout.region_block_addr(REGION_A, 3), b"a" * 64)
    nvm.write(layout.region_block_addr(REGION_B, 3), b"b" * 64)
    meta = MetaSnapshot(epoch=2, block_regions={3: REGION_A})
    state = recover_with(config, memctrl, meta)
    assert state.visible_block(3) == b"a" * 64


def test_page_entries_override_block_entries(setup):
    config, memctrl, layout = setup
    nvm = memctrl.functional_store(DeviceKind.NVM)
    page, block = 2, 2 * config.blocks_per_page
    nvm.write(layout.region_page_addr(REGION_A, page), b"p" * 64)
    meta = MetaSnapshot(epoch=1,
                        block_regions={block: REGION_B},
                        page_regions={page: (REGION_A, 0)})
    state = recover_with(config, memctrl, meta)
    assert state.visible_block(block) == b"p" * 64


def test_log_entries_override_everything(setup):
    config, memctrl, layout = setup
    nvm = memctrl.functional_store(DeviceKind.NVM)
    nvm.write(layout.log_slot_addr(5), b"l" * 64)
    nvm.write(layout.home_block_addr(9), b"h" * 64)
    meta = MetaSnapshot(epoch=4, block_regions={9: REGION_A},
                        log_slots={9: 5})
    assert recover_with(config, memctrl, meta).visible_block(9) == b"l" * 64


def test_recovery_restores_working_region(setup):
    config, memctrl, layout = setup
    nvm = memctrl.functional_store(DeviceKind.NVM)
    dram = memctrl.functional_store(DeviceKind.DRAM)
    page = 1
    base = layout.region_page_addr(REGION_B, page)
    for offset in range(config.blocks_per_page):
        nvm.write(base + offset * 64, bytes([offset]) * 64)
    meta = MetaSnapshot(epoch=0, page_regions={page: (REGION_B, 3)})
    recover_with(config, memctrl, meta)
    slot_base = layout.page_slot_addr(3)
    for offset in range(config.blocks_per_page):
        assert dram.read(slot_base + offset * 64) == bytes([offset]) * 64


def test_snapshot_physical(setup):
    config, memctrl, layout = setup
    nvm = memctrl.functional_store(DeviceKind.NVM)
    nvm.write(layout.home_block_addr(0), b"x" * 64)
    state = recover_with(config, memctrl, MetaSnapshot(epoch=0))
    image = state.snapshot_physical(4)
    assert image[0] == b"x" * 64
    assert image[3] == bytes(64)


def test_record_round_trips():
    meta = MetaSnapshot(epoch=7, block_regions={3: REGION_A, 2 ** 31: 0},
                        page_regions={5: (REGION_B, 12), 1: (REGION_A, 0)},
                        cpu_state=CpuState(512, 9), log_slots={8: 2})
    decoded = decode_record(encode_record(meta))
    assert decoded == meta
    # Iteration order survives too: resumed runs rebuild tables from it.
    assert list(decoded.block_regions) == list(meta.block_regions)
    assert list(decoded.page_regions) == list(meta.page_regions)
    assert decode_record(None) == MetaSnapshot(epoch=-1)


@pytest.mark.parametrize("payload", [
    b"", b"XXXX" + bytes(40),
    encode_record(MetaSnapshot(epoch=1, block_regions={3: 1}))[:-1],
    encode_record(MetaSnapshot(epoch=1)) + b"\0",
])
def test_malformed_records_are_refused(payload):
    with pytest.raises(RecoveryError):
        decode_record(payload)


def test_full_tables_fit_one_meta_slot():
    """Every record a Table 2 machine can write fits one meta slot:
    the full BTT plus one PTT entry per DRAM page slot, the largest
    block occupancy measured on the benchmark workloads (eviction
    shadows ride along past the BTT's capacity), and a full journal
    buffer's log."""
    config = SystemConfig()
    blocks = config.physical_blocks
    assert (config.btt_entries, config.dram_pages) == (2048, 256)
    cpu = CpuState(config.cpu_state_bytes, 10 ** 6)
    records = [
        MetaSnapshot(
            epoch=10 ** 6, cpu_state=cpu,
            block_regions={blocks - 1 - b: b & 1
                           for b in range(config.btt_entries)},
            page_regions={config.physical_pages - 1 - p: (p & 1, p)
                          for p in range(config.dram_pages)}),
        MetaSnapshot(epoch=10 ** 6, cpu_state=cpu,
                     block_regions={blocks - 1 - b: b & 1
                                    for b in range(2310)}),
        MetaSnapshot(epoch=10 ** 6,
                     log_slots={blocks - 1 - b: b for b in
                                range(config.btt_entries
                                      + config.ptt_entries)}),
    ]
    for meta in records:
        payload = encode_record(meta)
        assert len(payload) <= META_PAYLOAD_MAX
        store = FunctionalStore(config.block_bytes)
        store.write_meta(payload)          # no "payload too large"
        assert read_record(store) == meta
