"""Deterministic injection and the committed-prefix oracle."""

import dataclasses

import pytest

from repro.core.probes import SITE_KINDS
from repro.errors import CrashedError
from repro.fuzz.campaign import CampaignOptions
from repro.fuzz.plan import FUZZ_SYSTEMS, CrashPlan, parse_plan
from repro.fuzz.runner import (census, check_committed_prefix, fuzz_config,
                               run_plan)
from repro.fuzz.workloads import WORKLOAD_NAMES

#: Probe kinds no fuzz census reaches, with the reason.  Each must stay
#: unreached: a kind that starts firing leaves this table.
UNREACHED_KINDS = {
    "aux-commit": "fuzz working sets stay below the DRAM buffer on "
                  "purpose (repro.fuzz.workloads), so no sub-epoch "
                  "checkpoint runs",
}


def plan_for(system, site, occurrence=1, jitter=0, workload="sparse",
             detail=""):
    return CrashPlan(system=system, workload=workload, seed=1, epochs=2,
                     blocks=12, site=site, detail=detail,
                     occurrence=occurrence, jitter=jitter)


def test_same_plan_string_gives_identical_result():
    """The tentpole's determinism contract: one plan string is one
    reproducible simulation, byte for byte."""
    plan = parse_plan("thynvm/sparse:s1:e2:b12@fence#2+150")
    first = run_plan(plan).to_dict()
    second = run_plan(parse_plan(str(plan))).to_dict()
    assert first == second
    assert first["outcome"] == "pass"
    assert first["crash_cycle"] is not None


@pytest.mark.parametrize("system", FUZZ_SYSTEMS)
def test_commit_crash_passes_on_every_system(system):
    result = run_plan(plan_for(system, "commit"))
    assert result.outcome == "pass", result.detail
    assert result.crash_cycle is not None


def test_census_counts_sites_without_crashing():
    counts = census("thynvm", "sparse", seed=1, epochs=2, blocks=12)
    # Every epoch boundary runs one checkpoint: start, stages, fence,
    # commit record, metadata flip.
    assert counts["ckpt-start"] == 2
    assert counts["fence"] == 2
    assert counts["commit"] == 2
    assert counts["table-persist.btt"] >= 1


def test_every_site_kind_is_reached():
    """The runtime crash surface: at the full campaign shape, every
    catalogued probe kind fires in some system×workload census, except
    the listed unreached kinds, and no probe fires an uncatalogued kind.
    A new probe kind that no fuzz schedule reaches fails here."""
    mode = CampaignOptions().mode
    fired = set()
    for system in FUZZ_SYSTEMS:
        for workload in WORKLOAD_NAMES:
            counts = census(system, workload, seed=mode.seed,
                            epochs=mode.epochs, blocks=mode.blocks)
            fired.update(key.split(".")[0] for key in counts)
    assert not fired - SITE_KINDS.keys(), "uncatalogued probe kinds fired"
    assert SITE_KINDS.keys() - fired == UNREACHED_KINDS.keys()


def test_crash_surface_is_identical_in_every_store_mode(tmp_path):
    """The runtime crash surface does not depend on the store backend.

    A backend that skipped (or doubled) a probe site, say an mmap path
    that serviced commit records without the ``store-sync`` fence, would
    shift the census.  Pin the per-site occurrence counts byte-identical
    across functional, mmap and null backends, store-sync included.
    """
    configs = {
        "functional": fuzz_config(),
        "mmap": dataclasses.replace(fuzz_config(), store_dir=str(tmp_path)),
        "null": dataclasses.replace(fuzz_config(), track_data=False),
    }
    counts = {}
    for mode, config in configs.items():
        counts[mode] = census("thynvm", "sparse", seed=1, epochs=3,
                              blocks=16, config=config)
        assert any(key.startswith("store-sync") for key in counts[mode]), \
            f"store mode {mode!r} never fired the store-sync fence"
    assert counts["functional"] == counts["mmap"] == counts["null"]


def test_census_reflects_workload_shape():
    sparse = census("thynvm", "sparse", seed=1, epochs=2, blocks=12)
    hot = census("thynvm", "hotpage", seed=1, epochs=2, blocks=12)
    # The hot page promotes after its first full-page epoch, adding
    # promotion and page-table persist sites to the crash surface.
    assert "promote.2" not in sparse
    assert "promote.2" in hot
    assert "table-persist.ptt" in hot


def test_unreached_occurrence_reports_counts():
    result = run_plan(plan_for("thynvm", "fence", occurrence=999))
    assert result.outcome == "unreached"
    assert result.crash_cycle is None
    assert result.site_counts["fence"] == 2


def test_jitter_moves_the_crash_cycle():
    base = run_plan(plan_for("thynvm", "fence"))
    late = run_plan(plan_for("thynvm", "fence", jitter=500))
    assert base.crash_cycle is not None and late.crash_cycle is not None
    assert late.crash_cycle == base.crash_cycle + 500


def test_detail_filter_selects_one_stage():
    result = run_plan(plan_for("journal", "stage-done", detail="1"))
    assert result.outcome == "pass"
    assert result.crash_cycle is not None


def test_crashed_controller_rejects_further_use():
    plan = plan_for("thynvm", "ckpt-start")
    result = run_plan(plan)
    assert result.outcome == "pass"
    # The runner itself relies on the hardened crash API: a second
    # crash on the same controller raises, never silently no-ops.
    from repro.config import small_test_config
    from repro.core.controller import ThyNVMController
    from repro.mem.controller import MemoryController
    from repro.sim.engine import Engine
    from repro.stats.collector import StatsCollector

    config = small_test_config(epoch_cycles=10 ** 12)
    engine = Engine()
    stats = StatsCollector(config.block_bytes)
    controller = ThyNVMController(engine, config,
                                  MemoryController(engine, config, stats),
                                  stats)
    controller.start()
    controller.crash()
    with pytest.raises(CrashedError):
        controller.crash()


def test_oracle_demands_the_newest_committed_epoch():
    """An image equal to an older golden is a lost commit: it fails
    even though that epoch did commit and its image is intact."""
    older, newer = {5: b"a" * 64}, {5: b"b" * 64}
    goldens = {-1: {}, 0: older, 1: newer}
    assert check_committed_prefix(1, newer, goldens, [1], 64) == ""
    assert check_committed_prefix(0, older, goldens, [1], 64) == (
        "recovered to epoch 0, expected 1")
    assert check_committed_prefix(-1, {5: bytes(64)}, goldens, [1], 64)
    assert check_committed_prefix(1, older, goldens, [1], 64) == (
        "block 5 mismatch after recovery to epoch 1")
    # Journaling may also land on its pending epoch (log durable).
    assert check_committed_prefix(1, newer, goldens, [0, 1], 64) == ""
