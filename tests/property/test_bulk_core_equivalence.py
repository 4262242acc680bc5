"""Batched bulk-run core vs the per-block oracle.

The shadow-paging baseline is the heaviest bulk-run user: every
copy-on-write and every page checkpoint is issued as one read run and
one write run instead of a per-block request storm.  The storm survives
as the test oracle :class:`~.per_block_shadow.PerBlockShadow`, and this
test drives random workloads through both and requires byte-identical
``summary()`` output — cycles, traffic breakdowns, epoch counts, stall
attribution, everything.  The issued-request pin also covers page-only
ThyNVM, whose page copies travel as runs too (its oracle test is
``test_thynvm_page_run_equivalence.py``).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.harness.systems as systems
from repro.harness.experiments import MICRO_FOOTPRINT, experiment_config
from repro.harness.runner import execute, run_workload
from repro.harness.systems import build_system
from repro.workloads.tracespec import micro_spec

from .per_block_shadow import PerBlockShadow


def _shadow_summary(workload: str, ops: int, seed: int,
                    per_block: bool) -> dict:
    with pytest.MonkeyPatch.context() as patch:
        if per_block:
            patch.setattr(systems, "ShadowPagingController", PerBlockShadow)
        spec = micro_spec(workload, MICRO_FOOTPRINT, ops, seed=seed)
        result = run_workload("shadow", spec.build(), experiment_config())
    # Round-trip through JSON so "byte-identical" means the serialized
    # form, exactly like the golden-determinism guard.
    return json.loads(json.dumps(result.stats.summary(), sort_keys=True))


@given(workload=st.sampled_from(("random", "streaming", "sliding")),
       ops=st.integers(min_value=100, max_value=350),
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=8, deadline=None)
def test_bulk_core_summary_byte_identical_to_reference(workload, ops, seed):
    batched = _shadow_summary(workload, ops, seed, per_block=False)
    reference = _shadow_summary(workload, ops, seed, per_block=True)
    assert batched == reference


def test_bulk_core_collapses_issued_request_count():
    """The copy-amplification fix: page copies go out as runs, so the
    producer API sees far fewer requests than the blocks it services.
    A per-block issuer sends one request per serviced block.  Shadow
    paging copies a page per first write (~36 blocks per request on
    ``random``); page-only ThyNVM also issues every demand write to its
    buffered pages singly (~7 blocks per request), so its bound is 5."""
    for system, bound in (("shadow", 10), ("thynvm_page_only", 5)):
        spec = micro_spec("random", MICRO_FOOTPRINT, 2000, seed=1)
        machine = build_system(system, experiment_config())
        stats = execute(machine, spec.build()).stats
        blocks = (stats.nvm_reads.total() + stats.nvm_writes.total()
                  + stats.dram_reads.total() + stats.dram_writes.total())
        issued = machine.memctrl.requests_issued
        assert issued * bound <= blocks, (
            f"{system}: expected >={bound}x fewer issued requests than "
            f"serviced blocks, got {issued} requests for {blocks} blocks")
