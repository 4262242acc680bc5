"""End-to-end campaign: catch a seeded bug, minimize it, archive it.

This is the acceptance test for the whole pipeline: a known-bad
controller mutation must be *caught* by the oracle, *shrunk* by the
minimizer and *archived* as a replayable corpus entry that future
campaigns replay first — and flag as a regression while the bug is
still present.
"""

import json
from unittest import mock

import pytest

from repro.core.controller import ThyNVMController
from repro.core.regions import other_region
from repro.errors import WorkloadError
from repro.fuzz.campaign import (CampaignOptions, campaign_failed,
                                 run_campaign)
from repro.fuzz.corpus import archive, entry_path, load_corpus
from repro.fuzz.plan import parse_plan
from repro.fuzz.runner import run_plan

_REAL_SNAPSHOT = ThyNVMController._snapshot


def _buggy_snapshot(self, epoch):
    """Seeded bug: the checkpointed metadata records the wrong region
    for one block, so recovery reads the stale copy."""
    snap = _REAL_SNAPSHOT(self, epoch)
    if snap.block_regions:
        victim = max(snap.block_regions)
        snap.block_regions[victim] = other_region(
            snap.block_regions[victim])
    return snap


def quick_options(tmp_path, **overrides):
    fields = dict(quick=True, systems=("thynvm",), workloads=("sparse",),
                  jobs=1, corpus_dir=str(tmp_path / "corpus"),
                  max_minimized=1)
    fields.update(overrides)
    return CampaignOptions(**fields)


def test_clean_campaign_passes(tmp_path):
    report = run_campaign(quick_options(tmp_path))
    assert report["outcomes"] == {"pass": report["plans"]}
    assert report["plans"] > 10
    assert campaign_failed(report) == (False, False)
    assert report["corpus"] == {"entries": 0, "regressions": []}


def test_seeded_bug_is_caught_minimized_and_archived(tmp_path):
    with mock.patch.object(ThyNVMController, "_snapshot",
                           _buggy_snapshot):
        report = run_campaign(quick_options(tmp_path))
    assert report["outcomes"].get("fail", 0) > 0
    assert campaign_failed(report) == (False, True)

    # Minimization shrank the reproducer and archived it.
    assert report["minimized"]
    entry = report["minimized"][0]
    small = parse_plan(entry["plan"])
    original = parse_plan(entry["minimized_from"])
    assert (small.epochs, small.blocks) <= (original.epochs,
                                            original.blocks)

    # The archived entry replays standalone and carries the command.
    corpus = load_corpus(tmp_path / "corpus")
    assert len(corpus) == 1
    assert corpus[0]["plan"] == entry["plan"]
    assert "repro.cli fuzz replay" in corpus[0]["replay"]
    with mock.patch.object(ThyNVMController, "_snapshot",
                           _buggy_snapshot):
        assert run_plan(small).failed

    # Next campaign, bug still present: the corpus flags a regression.
    with mock.patch.object(ThyNVMController, "_snapshot",
                           _buggy_snapshot):
        again = run_campaign(quick_options(tmp_path,
                                           minimize_failures=False))
    assert again["corpus"]["regressions"] == [entry["plan"]]
    assert campaign_failed(again)[0] is True

    # Bug fixed: the corpus replays green and the campaign passes.
    fixed = run_campaign(quick_options(tmp_path,
                                       minimize_failures=False))
    assert fixed["corpus"] == {"entries": 1, "regressions": []}
    assert campaign_failed(fixed) == (False, False)


def test_report_is_deterministic(tmp_path):
    options = quick_options(tmp_path)
    first = json.dumps(run_campaign(options), sort_keys=True)
    second = json.dumps(run_campaign(options), sort_keys=True)
    assert first == second


def test_corrupt_corpus_entry_stops_the_campaign(tmp_path):
    corpus_dir = tmp_path / "corpus"
    plan = parse_plan("thynvm/sparse:s1:e1:b4@commit#1+0")
    archive(corpus_dir, plan, run_plan(plan), "test-version")
    entry_path(corpus_dir, plan).write_text("{not json", encoding="utf-8")
    with pytest.raises(WorkloadError):
        run_campaign(quick_options(tmp_path))
