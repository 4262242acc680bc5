"""A simulation run leaves no cyclic garbage.

Every object a run allocates must be freed by reference counting
alone.  The request path is where that is easy to lose: a producer that
finds a bounded queue full retries when a slot frees, and a retry
written as a closure that names itself (``def retry(): ... wait(retry)``)
turns every request it carries, and every callback that request holds,
into a reference cycle.  Only Python's cyclic collector frees those, and
a run then pays for hundreds of collector passes without any simulated
output moving, so no golden notices (docs/PERFORMANCE.md, "Acyclic
request path").  ``MemoryController.submit_or_wait`` is the one retry
path; this pins that it, and everything else a run builds, stays
acyclic.

Each case collects, disables the collector, runs, and then, with the
machine still referenced (its live objects are not garbage), asserts
that a full collection finds nothing.  Every object the collection
finds counts, the interpreter's own included: none of these runs
creates any.
"""

from __future__ import annotations

import collections
import gc
import types

import pytest

from repro.fuzz.plan import FUZZ_SYSTEMS, CrashPlan
from repro.fuzz.runner import drive_plan, fuzz_config
from repro.fuzz.workloads import build_schedule
from repro.harness.experiments import MICRO_FOOTPRINT, experiment_config
from repro.harness.runner import execute
from repro.harness.systems import build_system
from repro.workloads.kvstore import KVWorkload, kv_trace
from repro.workloads.tracespec import micro_spec

#: The five compared systems of the Fig. 7/8 matrix.
SYSTEMS = ("ideal_dram", "ideal_nvm", "journal", "shadow", "thynvm")
MICRO_OPS = 3000

#: The fuzz shape both plans of a system drive, and the crash trigger:
#: 40 cycles after the first checkpoint stage is durable, with the next
#: stage's traffic in flight (shadow paging's page copies mid-admission).
FUZZ_SHAPE = dict(workload="hotpage", seed=4, epochs=3, blocks=24)
CRASH_SITE, CRASH_OCCURRENCE, CRASH_JITTER = "stage-done", 1, 40


def _label(obj: object) -> str:
    if isinstance(obj, types.FunctionType):
        return obj.__qualname__
    if isinstance(obj, types.MethodType):
        return obj.__func__.__qualname__
    return type(obj).__qualname__


def assert_acyclic(run) -> None:
    """Run ``run()`` with the collector off; nothing it leaves behind
    may need the collector."""
    gc.collect()
    gc.disable()
    try:
        machine = run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        census = collections.Counter(_label(obj) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert machine is not None
    assert found == 0, (
        f"{found} objects in reference cycles; most common: "
        f"{census.most_common(6)}")


@pytest.mark.parametrize("system", SYSTEMS)
def test_micro_run_is_acyclic(system):
    def run():
        machine = build_system(system, experiment_config())
        execute(machine, micro_spec("streaming", MICRO_FOOTPRINT,
                                    MICRO_OPS, seed=1).build())
        return machine

    assert_acyclic(run)


def test_kv_run_is_acyclic():
    workload = KVWorkload(structure="btree", request_size=200, num_ops=200,
                          preload=200, key_space=1024, seed=3)

    def run():
        machine = build_system("thynvm", experiment_config())
        execute(machine, kv_trace(workload))
        return machine

    assert_acyclic(run)


@pytest.mark.parametrize("crashed", [False, True],
                         ids=["uncrashed", "crashed"])
@pytest.mark.parametrize("system", FUZZ_SYSTEMS)
def test_fuzz_plan_is_acyclic(system, crashed):
    plan = CrashPlan(system=system, site=CRASH_SITE,
                     occurrence=CRASH_OCCURRENCE if crashed else 10 ** 9,
                     jitter=CRASH_JITTER, **FUZZ_SHAPE)
    config = fuzz_config()
    schedule = build_schedule(plan.workload, plan.seed, plan.epochs,
                              plan.blocks, config)

    def run():
        controller, _injector, _committed, _forced = drive_plan(
            plan, schedule, config)
        assert controller.crashed == crashed
        return controller

    assert_acyclic(run)
