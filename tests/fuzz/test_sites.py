"""The crash-site taxonomy must track the static persist surface."""

from repro.analysis.effects import Effect
from repro.core import probes
from repro.fuzz.sites import (KIND_DESCRIPTIONS, KIND_EFFECTS,
                              coverage_gaps, effect_surface, taxonomy)


def test_every_probe_kind_is_catalogued():
    assert set(KIND_EFFECTS) == set(probes.SITE_KINDS)
    assert set(KIND_DESCRIPTIONS) == set(probes.SITE_KINDS)


def test_static_surface_is_nonempty():
    surface = effect_surface()
    # The protocol sources contain persist, fence and commit events.
    assert surface[Effect.TABLE_PERSIST.value]
    assert surface[Effect.FENCE.value]
    assert surface[Effect.COMMIT.value]


def test_no_coverage_gaps():
    """Every statically-classified persist/fence/commit effect has a
    probe kind covering it — a new persist path cannot silently escape
    the fuzzer's crash surface."""
    assert coverage_gaps() == {}


def test_taxonomy_anchors_effect_kinds_to_static_sites():
    catalogue = taxonomy()
    for kind, entry in catalogue.items():
        if KIND_EFFECTS[kind]:
            assert entry["static_sites"], (
                f"probe kind {kind!r} claims effects "
                f"{entry['effects']} but anchors no static site")


def test_crash_surface_is_identical_in_every_store_mode(tmp_path):
    """The runtime crash surface does not depend on the store backend.

    ``coverage_gaps()`` is a static check, but a backend that skipped
    (or doubled) a probe site — say an mmap path that serviced commit
    records without the ``store-sync`` fence — would shift the dynamic
    census while the static check stayed green.  Pin both: gaps stay
    empty, and the per-site occurrence counts are byte-identical across
    functional, mmap and null backends, store-sync included.
    """
    import dataclasses

    from repro.fuzz.runner import census, fuzz_config

    assert coverage_gaps() == {}
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
