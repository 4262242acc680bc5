"""Runtime bulk-run writes vs. the static ``BULK_WRITE`` surface.

Two pins between the batched array-core and the crash surface:

1. **Prediction**: the ``bulk-write`` probe (one notification per
   durable block of a checkpoint bulk run) only ever fires from code
   the static effect classifier marks ``Effect.BULK_WRITE`` —
   the fuzz taxonomy anchors the kind to those sites.
2. **Core equivalence**: the per-block oracle
   (:class:`~.per_block_shadow.PerBlockShadow`) changes *nothing*
   about the probe census except that ``bulk-write`` never fires —
   every other site fires the same number of times in both cores.
"""

from __future__ import annotations

import pytest

import repro.harness.systems as systems
from repro.analysis.effects import Effect
from repro.fuzz.runner import census
from repro.fuzz.sites import effect_surface

from .per_block_shadow import PerBlockShadow


@pytest.fixture
def census_pair(monkeypatch):
    """Site censuses of the same shadow workload under both cores."""

    def run():
        return census("shadow", "sparse", seed=3, epochs=2, blocks=8)

    bulk = run()
    monkeypatch.setattr(systems, "ShadowPagingController", PerBlockShadow)
    reference = run()
    return bulk, reference


def test_bulk_write_probe_is_statically_anchored(census_pair):
    bulk, _ = census_pair
    fired = {key for key in bulk if key.startswith("bulk-write")}
    assert fired, "bulk core fired no bulk-write probes"
    # Shadow's flush runs in the data stage (index 1: the CPU-state
    # stage is prepended), and that is the only stage built as runs.
    assert fired == {"bulk-write.1"}
    surface = effect_surface()
    sites = surface[Effect.BULK_WRITE.value]
    assert sites, "static surface has no BULK_WRITE sites"
    # The probe fires from CheckpointRun's bulk write admissions.
    assert any("checkpoint.py::CheckpointRun." in site for site in sites)


def test_reference_core_census_differs_only_in_bulk_write(census_pair):
    bulk, reference = census_pair
    assert not any(key.startswith("bulk-write") for key in reference)
    assert {key: count for key, count in bulk.items()
            if not key.startswith("bulk-write")} == reference


def test_bulk_write_count_matches_flush_traffic(census_pair):
    bulk, _ = census_pair
    # Every durable flush block notifies exactly once: the census count
    # is a multiple of a full page run and covers both checkpoints.
    from repro.fuzz.runner import fuzz_config
    config = fuzz_config()
    count = bulk["bulk-write.1"]
    assert count > 0
    assert count % config.blocks_per_page == 0
