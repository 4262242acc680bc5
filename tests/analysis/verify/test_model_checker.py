"""The shipped protocol model-checks clean: exact extraction, zero
counterexamples, and explored graphs inside the static tables."""

import pytest

from repro.analysis.verify import (PROTOCOL_FILES, VERIFY_SYSTEMS,
                                   VERIFY_WORKLOADS, build_exploration,
                                   extract_facts, run_verify)
from repro.baselines import journaling, shadow
from repro.core import controller
from repro.fuzz.plan import FUZZ_SYSTEMS
from repro.fuzz.workloads import WORKLOAD_NAMES


@pytest.fixture(scope="module")
def facts():
    return extract_facts()


@pytest.fixture(scope="module")
def explorations(facts):
    return {system: build_exploration(system, facts)
            for system in VERIFY_SYSTEMS}


def test_extraction_is_exact_on_shipped_tree(facts):
    # Zero warnings: every protocol fact resolves from the sources.
    # A refactor that breaks an anchor shows up here first.
    assert facts.warnings == []
    assert len(facts.files) == len(PROTOCOL_FILES) == 7
    assert sorted(facts.plans) == ["journal", "shadow", "thynvm"]


def test_extracted_checkpoint_shape(facts):
    # Verify reads the very literals the planners walk.
    for name, module in (("thynvm", controller), ("journal", journaling),
                         ("shadow", shadow)):
        assert [(stage.role, stage.dest) for stage in facts.plans[name]] \
            == [(role, dest.name) for role, dest in module.CHECKPOINT_PLAN]
    assert [stage.role for stage in facts.plans["thynvm"]] == [
        "temp", "btt", "page", "ptt"]
    assert [(stage.role, stage.dest) for stage in facts.plans["journal"]] \
        == [("cpu", "BACKUP"), ("log", "LOG"), ("home", "HOME")]
    assert [stage.dest for stage in facts.plans["shadow"]] == [
        "BACKUP", "COMPLEMENT"]
    assert facts.promotion is not None
    assert facts.promotion.kind == "committed-derived"
    assert facts.promotion.defers_mixed
    assert facts.bulk_inorder    # queue serviced-cursor discipline holds


@pytest.mark.parametrize("system", VERIFY_SYSTEMS)
def test_clean_tree_has_no_counterexamples(explorations, system):
    exploration = explorations[system]
    assert exploration.counterexamples == []
    assert exploration.crash_points > 0
    assert len(exploration.states) > 10


@pytest.mark.parametrize("system", VERIFY_SYSTEMS)
def test_explored_phase_edges_in_static_table(facts, explorations,
                                              system):
    assert facts.phase_graph is not None
    for old, new in explorations[system].phase_edges:
        assert new in facts.phase_graph.get(old, frozenset()), \
            f"{system}: {old} -> {new} absent from PHASE_TRANSITIONS"


@pytest.mark.parametrize("system", VERIFY_SYSTEMS)
def test_explored_state_edges_in_static_table(facts, explorations,
                                              system):
    assert facts.state_graph is not None
    for obj, edges in explorations[system].state_edges.items():
        for old, new in edges:
            assert new in facts.state_graph.get(old, frozenset()), \
                (f"{system}/{obj}: {old} -> {new} absent from "
                 f"ALLOWED_TRANSITIONS")


def test_run_verify_clean():
    report = run_verify()
    assert report.findings == []
    assert report.systems_scanned == len(VERIFY_SYSTEMS)
    assert report.exit_code(strict=True) == 0
    for system in VERIFY_SYSTEMS:
        assert report.systems[system]["counterexamples"] == []


def test_verify_surface_pins_fuzzer_surface():
    # The checker and the fuzzer must always talk about the same
    # systems and workloads, or counterexample plans stop replaying.
    assert VERIFY_SYSTEMS == FUZZ_SYSTEMS
    assert VERIFY_WORKLOADS == WORKLOAD_NAMES
