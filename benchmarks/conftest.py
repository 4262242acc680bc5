"""Shared fixtures for the figure-reproduction benchmarks.

Figures that plot different views of the same runs (e.g. Figs. 7/8 both
use the micro-benchmark runs; Figs. 9/10 both use the key-value-store
sweeps) share session-scoped result fixtures so each simulation runs
once per ``pytest benchmarks/`` invocation.

Scale knob: set ``REPRO_BENCH_SCALE`` (default 1.0) to grow or shrink
every trace proportionally, e.g. ``REPRO_BENCH_SCALE=3 pytest
benchmarks/ --benchmark-only`` for a longer, less noisy run.

Parallel execution (docs/HARNESS.md): every fixture drives its runs
through ``repro.harness.parallel``, so ``REPRO_BENCH_JOBS=N`` fans the
sweeps over N worker processes (default 1 — the serial path; results
are identical either way).
"""

from __future__ import annotations

import os

import pytest

from repro.harness import experiments

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def scaled(n: int) -> int:
    return max(200, int(n * SCALE))


@pytest.fixture(scope="session")
def micro_results():
    """Micro-benchmark runs shared by the Fig. 7 and Fig. 8 benches."""
    return experiments.run_micro(num_ops=scaled(12000), jobs=JOBS)


@pytest.fixture(scope="session")
def kv_hashtable_results():
    return experiments.run_kvstore("hashtable", num_ops=scaled(1200),
                                   jobs=JOBS)


@pytest.fixture(scope="session")
def kv_rbtree_results():
    return experiments.run_kvstore("rbtree", num_ops=scaled(1200),
                                   jobs=JOBS)


@pytest.fixture(scope="session")
def spec_results():
    return experiments.run_spec(num_mem_ops=scaled(10000), jobs=JOBS)


@pytest.fixture(scope="session")
def tradeoff_results():
    """Uniform-granularity ablation runs (Table 1 and the §1 claims)."""
    return experiments.table1_tradeoff(num_ops=scaled(8000), jobs=JOBS)
