"""The backing store must never change simulated outcomes.

``--store-dir`` swaps the functional stores for file-backed mappings
(docs/PERSISTENCE.md) — a *data plane* change only.  Timing, traffic
breakdowns, epoch counts and stall attribution must stay byte-identical
to the goldens captured with the in-memory stores, for every cell of
the compared-system matrix.  A store backend that leaks into simulated
results (an extra request, a reordered completion) fails here against
the exact same ``tests/golden/micro_summaries.json`` the default-mode
guard uses.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.experiments import MICRO_FOOTPRINT, experiment_config
from repro.harness.runner import run_workload
from repro.workloads.tracespec import micro_spec

from .test_golden_determinism import (
    NUM_OPS, SEED, SYSTEMS, WORKLOADS, _cells, _load_goldens)


def _run_mmap_cell(workload: str, system: str, tmp_path) -> dict:
    config = experiment_config(store_dir=str(tmp_path))
    spec = micro_spec(workload, MICRO_FOOTPRINT, NUM_OPS, seed=SEED)
    result = run_workload(system, spec.build(), config)
    return json.loads(json.dumps(result.stats.summary(), sort_keys=True))


@pytest.mark.parametrize("cell,workload,system", list(_cells()),
                         ids=[cell for cell, _, _ in _cells()])
def test_mmap_store_matches_golden(cell, workload, system, tmp_path):
    goldens = _load_goldens()
    assert _run_mmap_cell(workload, system, tmp_path) == goldens[cell], (
        f"--store-dir changed simulated results for {cell}: the store "
        f"backend must be a pure data-plane swap (docs/PERSISTENCE.md)")


def test_store_axis_covers_all_cells():
    """The sweep really is the whole compared matrix."""
    assert len(list(_cells())) == len(SYSTEMS) * len(WORKLOADS) == 15
