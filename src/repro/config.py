"""System configuration (Table 2 of the paper, plus scaling knobs).

:class:`SystemConfig` is the single source of truth for every size and
latency in the simulated machine.  The timing values are the paper's
Table 2 verbatim; the *capacity* values default to a scaled-down machine
because a pure-Python request-level simulator cannot execute billions of
instructions the way gem5 does.  Scaling is uniform — footprints, DRAM
size, and epoch length all shrink together — which preserves the ratio
of checkpointing work to execution work that the evaluation studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from .errors import ConfigError
from .units import KIB, MIB, ns_to_cycles, us_to_cycles


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and hit latency of one cache level."""

    size_bytes: int
    ways: int
    block_bytes: int
    hit_latency: int  # cycles

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.block_bytes) != 0:
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible by "
                f"{self.ways} ways x {self.block_bytes}B blocks"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.block_bytes)


@dataclass(frozen=True)
class DeviceTiming:
    """Row-buffer timing of one memory device, in CPU cycles.

    ``write_hit``/``write_miss_*`` allow asymmetric write latency; for
    DRAM they equal the read latencies, for NVM the dirty-miss path is
    much slower (row writeback on miss), per Table 2.
    """

    row_hit: int
    row_miss_clean: int
    row_miss_dirty: int
    burst: int  # data transfer time for one 64B block


def dram_timing() -> DeviceTiming:
    """DDR3-1600 DRAM: 40 ns row hit, 80 ns row miss (Table 2)."""
    return DeviceTiming(
        row_hit=ns_to_cycles(40),
        row_miss_clean=ns_to_cycles(80),
        row_miss_dirty=ns_to_cycles(80),
        burst=ns_to_cycles(5),
    )


def nvm_timing() -> DeviceTiming:
    """NVM: 40 ns row hit, 128 ns clean miss, 368 ns dirty miss (Table 2)."""
    return DeviceTiming(
        row_hit=ns_to_cycles(40),
        row_miss_clean=ns_to_cycles(128),
        row_miss_dirty=ns_to_cycles(368),
        burst=ns_to_cycles(5),
    )


@dataclass(frozen=True)
class SystemConfig:
    """Full machine description.

    Attributes mirror Table 2 where applicable.  All times are CPU
    cycles at 3 GHz and all sizes are bytes unless noted.
    """

    # --- address-space geometry -------------------------------------
    block_bytes: int = 64
    page_bytes: int = 4 * KIB
    physical_bytes: int = 8 * MIB       # software-visible address space
    dram_bytes: int = 1 * MIB           # Working Data Region capacity

    # --- device timing and geometry ----------------------------------
    dram: DeviceTiming = field(default_factory=dram_timing)
    nvm: DeviceTiming = field(default_factory=nvm_timing)
    row_bytes: int = 8 * KIB            # row-buffer size
    num_banks: int = 8

    # --- processor -----------------------------------------------------
    num_cores: int = 1          # Table 2's LLC is sized "2MB/core"

    # --- caches (Table 2) --------------------------------------------
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * KIB, 8, 64, 4))
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(256 * KIB, 8, 64, 12))
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(2 * MIB, 16, 64, 28))

    # --- memory controller --------------------------------------------
    read_queue_entries: int = 32
    write_queue_entries: int = 64
    table_lookup_latency: int = ns_to_cycles(3)   # BTT/PTT lookup

    # --- ThyNVM checkpointing ------------------------------------------
    btt_entries: int = 2048
    ptt_entries: int = 4096
    btt_entry_bytes: int = 7     # 42b index + 2b + 2b + 1b + 6b, rounded up
    ptt_entry_bytes: int = 6     # 36b index + 2b + 2b + 1b + 6b, rounded up
    epoch_cycles: int = us_to_cycles(100)  # scaled from the paper's 10 ms
    # Store-counter thresholds for switching checkpointing schemes
    # (stores per page per epoch; §4.2 of the paper).
    promote_threshold: int = 22   # block remapping -> page writeback
    demote_threshold: int = 16    # page writeback -> block remapping
    cpu_state_bytes: int = 512    # registers + store buffers flushed per ckpt

    # --- functional layer ----------------------------------------------
    track_data: bool = False      # store real bytes (tests/recovery demos)
    # Backing store for device contents (docs/PERSISTENCE.md): a set
    # store_dir selects file-backed MmapStores (dram.img / nvm.img in
    # that directory); otherwise FunctionalStore if track_data, else
    # the timing-only NullStore.
    store_dir: str = ""
    msync_policy: str = "commit"  # mmap flush policy: none|commit|always

    def __post_init__(self) -> None:
        if self.block_bytes <= 0 or self.block_bytes & (self.block_bytes - 1):
            raise ConfigError("block_bytes must be a positive power of two")
        if self.page_bytes % self.block_bytes != 0:
            raise ConfigError("page_bytes must be a multiple of block_bytes")
        if self.physical_bytes % self.page_bytes != 0:
            raise ConfigError("physical_bytes must be a multiple of page_bytes")
        if self.dram_bytes % self.page_bytes != 0:
            raise ConfigError("dram_bytes must be a multiple of page_bytes")
        if self.dram_bytes > self.physical_bytes:
            raise ConfigError("dram_bytes cannot exceed physical_bytes")
        if self.row_bytes % self.block_bytes != 0:
            raise ConfigError("row_bytes must be a multiple of block_bytes")
        if self.num_banks <= 0:
            raise ConfigError("num_banks must be positive")
        if self.ptt_entries < self.dram_pages:
            raise ConfigError(
                "PTT must have at least one entry per DRAM page "
                f"({self.ptt_entries} < {self.dram_pages}); see §4.2"
            )
        if self.demote_threshold > self.promote_threshold:
            raise ConfigError("demote_threshold must not exceed promote_threshold")
        if self.epoch_cycles <= 0:
            raise ConfigError("epoch_cycles must be positive")
        if self.num_cores < 1:
            raise ConfigError("num_cores must be at least 1")
        if self.msync_policy not in ("none", "commit", "always"):
            raise ConfigError(
                f"unknown msync policy {self.msync_policy!r} "
                "(have: none, commit, always)")

    # --- derived geometry ------------------------------------------------

    @property
    def blocks_per_page(self) -> int:
        return self.page_bytes // self.block_bytes

    @property
    def shared_l3(self) -> CacheConfig:
        """The shared LLC: Table 2 sizes it per core."""
        return CacheConfig(self.l3.size_bytes * self.num_cores,
                           self.l3.ways, self.l3.block_bytes,
                           self.l3.hit_latency)

    @property
    def physical_blocks(self) -> int:
        return self.physical_bytes // self.block_bytes

    @property
    def physical_pages(self) -> int:
        return self.physical_bytes // self.page_bytes

    @property
    def dram_pages(self) -> int:
        return self.dram_bytes // self.page_bytes

    @property
    def btt_bytes(self) -> int:
        """Hardware storage consumed by the BTT in the memory controller."""
        return self.btt_entries * self.btt_entry_bytes

    @property
    def ptt_bytes(self) -> int:
        """Hardware storage consumed by the PTT in the memory controller."""
        return self.ptt_entries * self.ptt_entry_bytes

    @property
    def metadata_bytes(self) -> int:
        """Total translation-table storage (paper: ~37 KB)."""
        return self.btt_bytes + self.ptt_bytes

    def with_overrides(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def describe(self) -> Dict[str, str]:
        """Human-readable configuration summary (Table 2 analogue)."""
        return {
            "Processor": "3 GHz, in-order, trace-driven",
            "L1": f"{self.l1.size_bytes // KIB}KB, {self.l1.ways}-way, "
                  f"{self.l1.block_bytes}B block; {self.l1.hit_latency} cycles hit",
            "L2": f"{self.l2.size_bytes // KIB}KB, {self.l2.ways}-way, "
                  f"{self.l2.block_bytes}B block; {self.l2.hit_latency} cycles hit",
            "L3": f"{self.l3.size_bytes // MIB}MB, {self.l3.ways}-way, "
                  f"{self.l3.block_bytes}B block; {self.l3.hit_latency} cycles hit",
            "DRAM": f"{self.dram_bytes // MIB} MB working region; "
                    f"row hit {self.dram.row_hit} cy, miss {self.dram.row_miss_clean} cy",
            "NVM": f"row hit {self.nvm.row_hit} cy, clean miss "
                   f"{self.nvm.row_miss_clean} cy, dirty miss {self.nvm.row_miss_dirty} cy",
            "BTT/PTT": f"{self.btt_entries}/{self.ptt_entries} entries "
                       f"({self.metadata_bytes / KIB:.1f} KB), "
                       f"{self.table_lookup_latency} cy lookup",
            "Epoch": f"{self.epoch_cycles} cycles",
        }


DEFAULT_CONFIG = SystemConfig()


def small_test_config(**overrides) -> SystemConfig:
    """A tiny configuration for unit tests: fast, fully functional."""
    base = dict(
        physical_bytes=256 * KIB,
        dram_bytes=64 * KIB,
        btt_entries=256,
        ptt_entries=64,
        epoch_cycles=us_to_cycles(10),
        l3=CacheConfig(64 * KIB, 16, 64, 28),
        l2=CacheConfig(16 * KIB, 8, 64, 12),
        l1=CacheConfig(4 * KIB, 8, 64, 4),
        track_data=True,
    )
    base.update(overrides)
    return SystemConfig(**base)
