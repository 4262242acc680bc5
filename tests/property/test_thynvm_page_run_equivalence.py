"""ThyNVM's page runs vs the per-block oracle.

ThyNVM issues every page copy's timed traffic as bulk runs: page
checkpoints (epoch and sub-epoch alike), page assembly at promotion or
adoption, and emergency page eviction.  The per-block request storm
they replaced survives as the test oracle
:class:`~.per_block_thynvm.PerBlockThyNVM`; these tests drive both
through the same inputs and require byte-identical ``summary()`` output
and fired-event counts:

* the Fig. 7/8 micro patterns on ``thynvm`` (``streaming`` promotes
  pages) and ``thynvm_page_only`` (every written page is adopted);
* the small test configuration over a 128 KiB footprint, twice its
  DRAM page buffer, where page-only adoptions evict pages mid-epoch;
* key-value runs on ``thynvm``, which promote pages;
* a direct drive that promotes pages mixing region-A and region-B
  copies with DRAM temp blocks.  ``_promotion_region`` defers such
  pages today (ROADMAP item 1), so the drive lifts the deferral for
  both controllers alike; the functional stores must match too.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from types import SimpleNamespace
from typing import Iterable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.harness.systems as systems
from repro.config import KIB, small_test_config
from repro.core.controller import ThyNVMController
from repro.core.regions import REGION_A
from repro.harness.experiments import MICRO_FOOTPRINT, experiment_config
from repro.harness.runner import execute
from repro.harness.systems import build_system
from repro.mem.controller import DeviceKind, MemoryController
from repro.sim.engine import Engine
from repro.stats.collector import StatsCollector
from repro.workloads.kvstore import KVWorkload, kv_trace
from repro.workloads.tracespec import micro_spec

from ..conftest import MANUAL_EPOCHS, end_epoch, settle, write_block
from .per_block_thynvm import PerBlockThyNVM

SYSTEMS = ("thynvm", "thynvm_page_only")
PATTERNS = ("random", "streaming", "sliding")


def _outcome(trace: Iterable, system: str, config,
             per_block: bool) -> dict:
    """Summary and fired events of one run, JSON round-tripped so that
    "byte-identical" means the serialized form, like the goldens."""
    with pytest.MonkeyPatch.context() as patch:
        if per_block:
            patch.setattr(systems, "ThyNVMController", PerBlockThyNVM)
        machine = build_system(system, config)
        execute(machine, trace)
    assert isinstance(machine.memsys, PerBlockThyNVM) == per_block
    return json.loads(json.dumps(
        {"summary": machine.stats.summary(),
         "events": machine.engine.events_fired}, sort_keys=True))


def _assert_identical(make_trace, system: str, config) -> None:
    runs = _outcome(make_trace(), system, config, per_block=False)
    reference = _outcome(make_trace(), system, config, per_block=True)
    assert runs == reference


@given(system=st.sampled_from(SYSTEMS),
       workload=st.sampled_from(PATTERNS),
       ops=st.integers(min_value=100, max_value=1500),
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=8, deadline=None)
def test_micro_patterns_byte_identical(system, workload, ops, seed):
    spec = micro_spec(workload, MICRO_FOOTPRINT, ops, seed=seed)
    _assert_identical(spec.build, system, experiment_config())


@given(system=st.sampled_from(SYSTEMS),
       workload=st.sampled_from(PATTERNS),
       ops=st.integers(min_value=500, max_value=2500),
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=8, deadline=None)
def test_page_eviction_byte_identical(system, workload, ops, seed):
    spec = micro_spec(workload, 128 * KIB, ops, seed=seed)
    _assert_identical(spec.build, system, small_test_config())


@given(structure=st.sampled_from((("btree", 200), ("hashtable", 136),
                                  ("rbtree", 100))),
       ops=st.integers(min_value=100, max_value=400),
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=6, deadline=None)
def test_kv_promotions_byte_identical(structure, ops, seed):
    name, size = structure
    workload = KVWorkload(structure=name, request_size=size, num_ops=ops,
                          preload=200, key_space=1024, seed=seed)
    _assert_identical(lambda: kv_trace(workload), "thynvm",
                      experiment_config())


# --- mixed pages, direct-driven ---------------------------------------------

PAGE = 1
# (first, second, temps, later) of the fixed example.
FIXED = (range(0, 20), range(10, 40), (12, 30, 31), (0, 63))
_deferring_region = ThyNVMController._promotion_region


def _never_defer(self, page: int) -> int:
    """``_promotion_region`` without its mixed-page deferral."""
    region = _deferring_region(self, page)
    return REGION_A if region is None else region


@contextlib.contextmanager
def _deferral_lifted():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ThyNVMController, "_promotion_region", _never_defer)
        yield patch


def _mixed_drive(cls, first, second, temps, later) -> dict:
    """Promote page ``PAGE`` with a mix of sources, then write it back.

    Epoch 0 writes offsets ``first`` (their copies commit to region A),
    epoch 1 writes ``second`` (rewritten blocks commit back to region
    B), and while epoch 1's checkpoint is in flight ``temps`` (a subset
    of ``second``) are rewritten into DRAM temp slots.  Epoch 1's commit
    promotes the page; ``later`` offsets are then written through it
    and two more checkpoints write it back.  Returns the outcome and
    digests of both devices' functional images."""
    config = small_test_config(epoch_cycles=MANUAL_EPOCHS)
    engine = Engine()
    stats = StatsCollector(config.block_bytes)
    memctrl = MemoryController(engine, config, stats)
    ctl = cls(engine, config, memctrl, stats)
    ctl.start()
    system = SimpleNamespace(engine=engine, config=config, ctl=ctl)
    base = PAGE * config.blocks_per_page
    ctl.coordinator.promote_threshold = config.blocks_per_page + 1
    for offset in first:
        write_block(system, base + offset, b"a%d" % offset)
    settle(engine, 200_000)
    end_epoch(system)
    for offset in second:
        write_block(system, base + offset, b"b%d" % offset)
    settle(engine, 200_000)
    ctl.coordinator.promote_threshold = 1
    end_epoch(system, wait_commit=False)
    for offset in temps:
        write_block(system, base + offset, b"t%d" % offset)
    settle(engine, 2_000_000)
    assert PAGE in ctl.ptt
    for offset in later:
        write_block(system, base + offset, b"c%d" % offset)
    end_epoch(system)
    end_epoch(system)
    settle(engine, 200_000)
    ctl.validate()
    images = {kind.value: hashlib.sha256(memctrl.functional_store(
                  kind).read_run(0, size // config.block_bytes)).hexdigest()
              for kind, size in ((DeviceKind.NVM, ctl.layout.nvm_bytes),
                                 (DeviceKind.DRAM, ctl.layout.dram_bytes))}
    return json.loads(json.dumps(
        {"summary": stats.summary(), "events": engine.events_fired,
         "images": images}, sort_keys=True))


@st.composite
def mixed_pages(draw):
    offsets = st.integers(min_value=0, max_value=63)
    first = draw(st.lists(offsets, min_size=1, max_size=24, unique=True))
    second = draw(st.lists(offsets, min_size=2, max_size=24, unique=True))
    temps = draw(st.lists(st.sampled_from(second), max_size=6,
                          unique=True))
    later = draw(st.lists(offsets, min_size=1, max_size=8, unique=True))
    return first, second, temps, later


def _sources(ctl, page: int) -> str:
    """Where each block of ``page`` is assembled from: ``A``/``B`` for a
    checkpoint region (a region-A block also gets a home write), ``T``
    for a DRAM temp slot."""
    first = page * ctl.config.blocks_per_page
    marks = []
    for block in range(first, first + ctl.config.blocks_per_page):
        entry = ctl.btt.lookup(block)
        if entry is not None and entry.temp_epochs:
            marks.append("T")
        elif entry is not None and entry.stable_region == REGION_A:
            marks.append("A")
        else:
            marks.append("B")
    return "".join(marks)


def test_mixed_page_drive_reaches_every_source():
    """The fixed example assembles its page from region A (blocks 0-9,
    20-39 but for the temps), region B (10-19, 40-63) and three temp
    slots: six read runs around the temps, with home writes."""
    seen = []
    assemble = ThyNVMController._assemble_page

    def recording(self, pe):
        seen.append(_sources(self, pe.page))
        return assemble(self, pe)

    with _deferral_lifted() as patch:
        patch.setattr(ThyNVMController, "_assemble_page", recording)
        _mixed_drive(ThyNVMController, *FIXED)
    assert seen == ["A" * 10 + "BB" + "T" + "B" * 7 + "A" * 10 + "TT"
                    + "A" * 8 + "B" * 24]


@given(mixed_pages())
@example(FIXED)
@settings(max_examples=10, deadline=None)
def test_mixed_pages_byte_identical(schedule):
    with _deferral_lifted():
        assert (_mixed_drive(ThyNVMController, *schedule)
                == _mixed_drive(PerBlockThyNVM, *schedule))
