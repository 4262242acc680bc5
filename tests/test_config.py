"""Unit tests for configuration validation and unit conversions."""

import pytest

from repro.config import CacheConfig, SystemConfig, small_test_config
from repro.errors import ConfigError
from repro.units import (bytes_per_second, cycles_to_ns, cycles_to_seconds,
                         ms_to_cycles, ns_to_cycles, us_to_cycles)


def test_default_config_matches_table2():
    config = SystemConfig()
    assert config.block_bytes == 64
    assert config.page_bytes == 4096
    assert config.blocks_per_page == 64
    assert config.btt_entries == 2048
    assert config.ptt_entries == 4096
    assert config.promote_threshold == 22
    assert config.demote_threshold == 16
    assert 30_000 < config.metadata_bytes < 45_000   # ~37 KB
    assert config.dram.row_hit == ns_to_cycles(40)
    assert config.dram.row_miss_clean == ns_to_cycles(80)
    assert config.nvm.row_hit == ns_to_cycles(40)
    assert config.nvm.row_miss_clean == ns_to_cycles(128)
    assert config.nvm.row_miss_dirty == ns_to_cycles(368)
    assert config.table_lookup_latency == ns_to_cycles(3)
    assert config.l1.hit_latency == 4
    assert config.l2.hit_latency == 12
    assert config.l3.hit_latency == 28


def test_derived_geometry():
    config = small_test_config()
    assert config.physical_blocks == config.physical_bytes // 64
    assert config.physical_pages == config.physical_bytes // 4096
    assert config.dram_pages == config.dram_bytes // 4096


def test_invalid_geometry_rejected():
    with pytest.raises(ConfigError):
        SystemConfig(block_bytes=48)
    with pytest.raises(ConfigError):
        SystemConfig(page_bytes=4000)
    with pytest.raises(ConfigError):
        SystemConfig(dram_bytes=64 * 1024 * 1024)   # > physical
    with pytest.raises(ConfigError):
        SystemConfig(epoch_cycles=0)
    with pytest.raises(ConfigError):
        SystemConfig(promote_threshold=10, demote_threshold=20)


def test_ptt_must_cover_dram():
    with pytest.raises(ConfigError):
        SystemConfig(ptt_entries=16)    # < dram pages


def test_cache_config_validation():
    CacheConfig(4096, 8, 64, 1)
    with pytest.raises(ConfigError):
        CacheConfig(4096, 7, 64, 1)     # not divisible


def test_with_overrides_returns_new_config():
    base = SystemConfig()
    other = base.with_overrides(btt_entries=256)
    assert other.btt_entries == 256
    assert base.btt_entries == 2048


def test_describe_mentions_key_parameters():
    text = " ".join(SystemConfig().describe().values())
    assert "3 GHz" in text
    assert "2048/4096" in text


def test_unit_conversions():
    assert ns_to_cycles(40) == 120
    assert ns_to_cycles(368) == 1104
    assert us_to_cycles(1) == 3000
    assert ms_to_cycles(10) == 30_000_000
    assert cycles_to_ns(120) == 40
    assert cycles_to_seconds(3_000_000_000) == 1.0
    assert bytes_per_second(1000, 3_000_000_000) == 1000.0
    assert bytes_per_second(1000, 0) == 0.0
