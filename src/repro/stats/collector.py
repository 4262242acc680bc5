"""Central statistics collector.

One :class:`StatsCollector` is shared by the CPU, caches, memory
controller and consistency controller of a simulated system.  It holds
exactly the quantities the paper's figures report:

* execution cycles and instruction count (Figs. 7, 11),
* NVM write traffic broken down by origin (Fig. 8),
* time spent stalled on checkpointing (Fig. 8's right axis),
* transaction counts for throughput (Figs. 9, 12),
* NVM write bytes for bandwidth (Figs. 10, 12).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..units import bytes_per_second, cycles_to_seconds
from .counters import CounterGroup
from .histogram import Histogram


class StatsCollector:
    """All measurements for one simulated run."""

    def __init__(self, block_bytes: int = 64) -> None:
        self.block_bytes = block_bytes

        # CPU-side progress.
        self.instructions = 0
        self.transactions = 0          # workload-level operations completed
        self.start_cycle = 0
        self.end_cycle = 0

        # Stall accounting (cycles the CPU was frozen, by cause).
        self.stall_cycles = CounterGroup("stall_cycles")

        # Device traffic, in blocks, by request origin.
        self.nvm_writes = CounterGroup("nvm_write_blocks")
        self.nvm_reads = CounterGroup("nvm_read_blocks")
        self.dram_writes = CounterGroup("dram_write_blocks")
        self.dram_reads = CounterGroup("dram_read_blocks")

        # Latency distributions.
        self.read_latency = Histogram("read_latency")
        self.write_latency = Histogram("write_latency")
        self.checkpoint_duration = Histogram("checkpoint_duration")

        # Epoch/checkpoint bookkeeping.
        self.epochs_completed = 0
        self.epochs_forced_by_overflow = 0
        self.checkpoint_busy_cycles = 0   # wall-clock cycles a ckpt was active
        self.pages_promoted = 0           # block remapping -> page writeback
        self.pages_demoted = 0            # page writeback -> block remapping
        self.table_entries_peak = 0
        self.btt_peak_entries = 0
        self.ptt_peak_entries = 0

        # Cache behaviour.
        self.cache_hits = CounterGroup("cache_hits")
        self.cache_misses = CounterGroup("cache_misses")

    # --- derived quantities ---------------------------------------------

    @property
    def cycles(self) -> int:
        """Total simulated execution time in cycles."""
        return self.end_cycle - self.start_cycle

    @property
    def ipc(self) -> float:
        """Instructions per cycle (Fig. 11's metric)."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def seconds(self) -> float:
        return cycles_to_seconds(self.cycles)

    @property
    def checkpoint_stall_fraction(self) -> float:
        """Share of execution time stalled on checkpointing (Fig. 8)."""
        if not self.cycles:
            return 0.0
        ckpt = (self.stall_cycles.get("checkpoint")
                + self.stall_cycles.get("flush")
                + self.stall_cycles.get("backpressure"))
        return ckpt / self.cycles

    @property
    def nvm_write_blocks(self) -> int:
        return self.nvm_writes.total()

    @property
    def nvm_write_bytes(self) -> int:
        return self.nvm_write_blocks * self.block_bytes

    @property
    def nvm_write_bandwidth(self) -> float:
        """NVM write bandwidth in bytes/second (Fig. 10)."""
        return bytes_per_second(self.nvm_write_bytes, self.cycles)

    @property
    def dram_write_bandwidth(self) -> float:
        """DRAM write bandwidth in bytes/second (Fig. 10, Ideal DRAM)."""
        return bytes_per_second(
            self.dram_writes.total() * self.block_bytes, self.cycles)

    @property
    def throughput_tps(self) -> float:
        """Workload transactions per simulated second (Fig. 9)."""
        return self.transactions / self.seconds if self.seconds else 0.0

    def nvm_write_breakdown(self) -> Dict[str, int]:
        """Fig. 8's three-way split, in blocks, plus an ``other`` bucket.

        ``other`` catches origins outside the figure's three categories
        (e.g. post-crash recovery traffic) so the breakdown always sums
        to :attr:`nvm_write_blocks` — bars that silently drop traffic
        would misrepresent the figure.
        """
        cpu = self.nvm_writes.get("cpu") + self.nvm_writes.get("flush")
        checkpoint = (self.nvm_writes.get("checkpoint")
                      + self.nvm_writes.get("journal"))
        migration = self.nvm_writes.get("migration")
        other = self.nvm_writes.total() - cpu - checkpoint - migration
        return {"cpu": cpu, "checkpoint": checkpoint,
                "migration": migration, "other": other}

    def summary(self) -> Dict[str, object]:
        """Flat dict used by the harness's report tables."""
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": round(self.ipc, 4),
            "transactions": self.transactions,
            "throughput_tps": round(self.throughput_tps, 1),
            "nvm_write_blocks": self.nvm_write_blocks,
            "nvm_write_breakdown": self.nvm_write_breakdown(),
            "nvm_write_bandwidth_MBps": round(
                self.nvm_write_bandwidth / (1 << 20), 2),
            "stall_cycles": self.stall_cycles.as_dict(),
            "ckpt_stall_fraction": round(self.checkpoint_stall_fraction, 4),
            "epochs": self.epochs_completed,
            "epochs_forced_by_overflow": self.epochs_forced_by_overflow,
            "pages_promoted": self.pages_promoted,
            "pages_demoted": self.pages_demoted,
        }

    # --- recording helpers -------------------------------------------------

    def record_device_access(
        self,
        device_name: str,
        is_write: bool,
        origin: str,
        latency: Optional[int] = None,
    ) -> None:
        """Record one serviced request (tests / occasional callers).

        The memory controller's completion path records through
        :meth:`device_channels` instead: the channels are resolved once
        per device at construction, so the per-access work is a dict
        increment and a histogram record with no string dispatch.
        """
        reads, writes, read_latency, write_latency = \
            self.device_channels(device_name)
        (writes if is_write else reads).add(origin)
        if latency is not None:
            (write_latency if is_write else read_latency).record(latency)

    def device_channels(self, device_name: str):
        """(read group, write group, read histogram, write histogram)
        for one device — pre-bindable references for hot paths."""
        if device_name == "nvm":
            return (self.nvm_reads, self.nvm_writes,
                    self.read_latency, self.write_latency)
        return (self.dram_reads, self.dram_writes,
                self.read_latency, self.write_latency)
