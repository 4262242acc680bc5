"""Runtime bulk-run writes: the batched array-core's crash surface.

Two pins between the batched array-core and the crash surface:

1. **Anchor**: the ``bulk-write`` probe (one notification per durable
   block of a checkpoint bulk run) is fired from
   :class:`~repro.core.checkpoint.CheckpointRun`, and at runtime only in
   the data stage.
2. **Core equivalence**: the per-block oracles
   (:class:`~.per_block_shadow.PerBlockShadow` and
   :class:`~.per_block_thynvm.PerBlockThyNVM`) change *nothing* about
   the probe census except that ``bulk-write`` never fires: every other
   site fires the same number of times in both cores.
"""

from __future__ import annotations

import inspect

import pytest

import repro.harness.systems as systems
from repro.core.checkpoint import CheckpointRun
from repro.fuzz.runner import census, fuzz_config

from .per_block_shadow import PerBlockShadow
from .per_block_thynvm import PerBlockThyNVM


@pytest.fixture
def census_pair(monkeypatch):
    """Site censuses of the same shadow workload under both cores."""

    def run():
        return census("shadow", "sparse", seed=3, epochs=2, blocks=8)

    bulk = run()
    monkeypatch.setattr(systems, "ShadowPagingController", PerBlockShadow)
    reference = run()
    return bulk, reference


@pytest.fixture
def thynvm_census_pair(monkeypatch):
    """Site censuses of the same page-only ThyNVM workload under the
    shipped page runs and the per-block oracle."""

    def run():
        return census("thynvm_page_only", "sparse", seed=3, epochs=2,
                      blocks=8)

    runs = run()
    monkeypatch.setattr(systems, "ThyNVMController", PerBlockThyNVM)
    reference = run()
    return runs, reference


def test_bulk_write_probe_is_statically_anchored(census_pair):
    bulk, _ = census_pair
    fired = {key for key in bulk if key.startswith("bulk-write")}
    assert fired, "bulk core fired no bulk-write probes"
    # Shadow's flush runs in the data stage (index 1: the CPU-state
    # stage is prepended), and that is the only stage built as runs.
    assert fired == {"bulk-write.1"}
    # The probe fires from CheckpointRun's bulk write admissions.
    assert 'probes.notify("bulk-write"' in inspect.getsource(CheckpointRun)


def test_reference_core_census_differs_only_in_bulk_write(census_pair):
    bulk, reference = census_pair
    assert not any(key.startswith("bulk-write") for key in reference)
    assert {key: count for key, count in bulk.items()
            if not key.startswith("bulk-write")} == reference


def test_bulk_write_count_matches_flush_traffic(census_pair):
    bulk, _ = census_pair
    # Every durable flush block notifies exactly once: the census count
    # is a multiple of a full page run and covers both checkpoints.
    count = bulk["bulk-write.1"]
    assert count > 0
    assert count % fuzz_config().blocks_per_page == 0


def test_thynvm_reference_census_differs_only_in_bulk_write(
        thynvm_census_pair):
    runs, reference = thynvm_census_pair
    assert not any(key.startswith("bulk-write") for key in reference)
    assert {key: count for key, count in runs.items()
            if not key.startswith("bulk-write")} == reference
    # ThyNVM's page stage (index 2: temp, btt, page, ptt) is the only
    # stage built as runs, and it writes whole pages.
    fired = {key: count for key, count in runs.items()
             if key.startswith("bulk-write")}
    assert set(fired) == {"bulk-write.2"}
    assert fired["bulk-write.2"] % fuzz_config().blocks_per_page == 0
