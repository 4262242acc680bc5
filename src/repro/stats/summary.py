"""Exact, picklable snapshots of a :class:`StatsCollector`.

The parallel harness runs simulations in worker processes and sends
each finished run back to the parent, which needs a representation
that (a) pickles/JSON-serializes cheaply and (b) restores to a
``StatsCollector`` *exactly*, so figure code computed from a restored
collector is byte-identical to figure code computed from the live one.

``stats_to_dict`` captures every field the collector records (plain
ints plus counter/histogram contents); ``stats_from_dict`` rebuilds the
collector.  Round-trip exactness is enforced by
``tests/stats/test_summary.py``.
"""

from __future__ import annotations

from typing import Dict

from .collector import StatsCollector
from .counters import CounterGroup
from .histogram import Histogram

# StatsCollector attributes that are plain integers.
_SCALAR_FIELDS = (
    "instructions", "transactions", "start_cycle", "end_cycle",
    "epochs_completed", "epochs_forced_by_overflow",
    "checkpoint_busy_cycles", "pages_promoted", "pages_demoted",
    "table_entries_peak", "btt_peak_entries", "ptt_peak_entries",
)

_COUNTER_FIELDS = ("stall_cycles", "nvm_writes", "nvm_reads",
                   "dram_writes", "dram_reads", "cache_hits",
                   "cache_misses")

_HISTOGRAM_FIELDS = ("read_latency", "write_latency",
                     "checkpoint_duration")


def _histogram_to_dict(histogram: Histogram) -> Dict[str, object]:
    return {
        "count": histogram.count,
        "total": histogram.total,
        "min": histogram.min,
        "max": histogram.max,
        # JSON object keys are strings; restore converts them back.
        "buckets": {str(k): v for k, v in histogram.bucket_counts().items()},
    }


def _histogram_from_dict(name: str, payload: Dict[str, object]) -> Histogram:
    histogram = Histogram(name)
    histogram.count = payload["count"]
    histogram.total = payload["total"]
    histogram.min = payload["min"]
    histogram.max = payload["max"]
    histogram._buckets = {int(k): v
                          for k, v in sorted(payload["buckets"].items())}
    return histogram


def stats_to_dict(stats: StatsCollector) -> Dict[str, object]:
    """A JSON-safe, picklable snapshot of every recorded measurement."""
    return {
        "block_bytes": stats.block_bytes,
        "scalars": {name: getattr(stats, name) for name in _SCALAR_FIELDS},
        "counters": {name: getattr(stats, name).as_dict()
                     for name in _COUNTER_FIELDS},
        "histograms": {name: _histogram_to_dict(getattr(stats, name))
                       for name in _HISTOGRAM_FIELDS},
    }


def stats_from_dict(payload: Dict[str, object]) -> StatsCollector:
    """Rebuild the collector a snapshot was taken from, exactly."""
    stats = StatsCollector(payload["block_bytes"])
    for name, value in payload["scalars"].items():
        setattr(stats, name, value)
    for name, counts in payload["counters"].items():
        group: CounterGroup = getattr(stats, name)
        for key in sorted(counts):
            group.add(key, counts[key])
    for name, histogram in payload["histograms"].items():
        setattr(stats, name,
                _histogram_from_dict(getattr(stats, name).name, histogram))
    return stats
