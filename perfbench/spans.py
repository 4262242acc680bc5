"""Per-layer timing for the traced run, installed from the benchmark.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.installed`
replaces each layer's public entry points (and ``Engine.schedule`` /
``schedule_at``) with timing wrappers and puts the originals back on
exit; untraced runs never call it, so they run the program's own
functions.

Every wrapped call is a span ``(layer, parent layer, unit id, start,
end)``.  Spans are folded in memory into one record per parent -> child
edge (calls, units, total and self time) and written out when the run
ends.  Self time is span time minus the time covered by child spans.
A callback handed to the engine is charged to the layer of the module
that defines it.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

#: The layers the traced run reports, named after the modules under
#: ``src/repro``.  A module belongs to the longest layer that prefixes it.
LAYERS = ("workloads", "cpu", "cache", "core", "core.recovery", "baselines",
          "mem.controller", "sim.queueing", "mem.device", "mem.datastore",
          "sim.engine", "stats", "fuzz")

#: Modules that sit inside another layer's boundary.
_MODULE_LAYER = {"mem.mmapstore": "mem.datastore", "sim.event": "sim.engine"}


def layer_for_module(module: str) -> str:
    name = module[len("repro."):] if module.startswith("repro.") else module
    name = _MODULE_LAYER.get(name, name)
    matches = [layer for layer in LAYERS
               if name == layer or name.startswith(layer + ".")]
    return max(matches, key=len, default="other")


def _entry_points() -> List[Tuple[object, Tuple[str, ...], str]]:
    """(owner, attribute names, layer) for every wrapped entry point."""
    from repro.baselines.base import StopTheWorldController
    from repro.baselines.ideal import IdealController
    from repro.baselines.journaling import JournalingController
    from repro.baselines.shadow import ShadowPagingController
    from repro.cache.hierarchy import CacheHierarchy
    from repro.core.controller import ThyNVMController
    from repro.core.recovery import RecoveredState
    from repro.cpu.core import Core
    from repro.fuzz import runner as fuzz_runner
    from repro.mem.controller import MemoryController
    from repro.mem.datastore import FunctionalStore, NullStore
    from repro.mem.device import MemoryDevice
    from repro.mem.mmapstore import MmapStore
    from repro.sim.engine import Engine
    from repro.sim.queueing import BoundedQueue
    from repro.stats.counters import CounterGroup
    from repro.stats.histogram import Histogram

    controller = ("start", "stop", "read_block", "write_block",
                  "force_epoch_end", "persist_barrier", "drain", "crash",
                  "recovered_block", "visible_block_bytes")
    store = ("write", "read", "write_run", "read_run", "copy_run",
             "copy_block")
    return [
        (CacheHierarchy, ("access", "flush_dirty", "invalidate_all"), "cache"),
        (Core, ("run_trace",), "cpu"),
        (ThyNVMController, controller, "core"),
        (ThyNVMController, ("recover",), "core.recovery"),
        (RecoveredState, ("visible_block",), "core.recovery"),
        (StopTheWorldController, controller, "baselines"),
        (JournalingController, controller, "baselines"),
        (ShadowPagingController, controller, "baselines"),
        (IdealController, controller, "baselines"),
        (MemoryController, ("submit", "submit_bulk", "bulk_admit_next",
                            "wait_for_slot", "when_writes_drained",
                            "fence_writes", "msync", "crash"),
         "mem.controller"),
        (BoundedQueue, ("pop_ready", "try_enqueue", "try_enqueue_bulk",
                        "grow_bulk", "youngest_payload", "drop_all"),
         "sim.queueing"),
        (MemoryDevice, ("access", "access_decoded"), "mem.device"),
        (FunctionalStore, store, "mem.datastore"),
        (NullStore, store, "mem.datastore"),
        (MmapStore, store, "mem.datastore"),
        (Histogram, ("record",), "stats"),
        (CounterGroup, ("add",), "stats"),
        (Engine, ("run",), "sim.engine"),
        (fuzz_runner.CrashInjector, ("observe",), "fuzz"),
        (fuzz_runner, ("run_plan",), "fuzz"),
    ]


def _block_count(name: str, args: tuple) -> int:
    """Blocks one datastore call touches (``*_run`` take a count)."""
    if name in ("write_run", "read_run"):
        return args[2]
    if name == "copy_run":
        return args[3]
    return 1


class Tracer:
    """Span aggregation plus the install/restore of the wrappers."""

    def __init__(self) -> None:
        self.unit = 0                       # id of the unit being run
        self.cpu_s = 0.0                    # CPU time of the last phase
        self.wall_ns = 0                    # span clock over the last phase
        self._stack: List[list] = [["root", 0]]
        # (parent, layer) -> [calls, total_ns, self_ns, units, last unit]
        self._edges: Dict[Tuple[str, str], list] = {}
        self.counts = {"pop_ready": 0, "pop_ready_hits": 0,
                       "enqueue_refused": 0, "store_blocks": 0}
        self._captured: Dict[str, list] = {"engine": [], "memctrl": [],
                                           "stats": []}
        self._patches: List[Tuple[object, str, object]] = []
        self._module_layer: Dict[str, str] = {}

    # --- spans ---------------------------------------------------------------

    def call(self, layer: str, fn: Callable, args: tuple, kwargs: dict):
        """Run ``fn`` as one span of ``layer``."""
        stack = self._stack
        frame = [layer, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            stack.pop()
            parent = stack[-1]
            parent[1] += elapsed
            key = (parent[0], layer)
            edge = self._edges.get(key)
            if edge is None:
                edge = self._edges[key] = [0, 0, 0, 0, None]
            edge[0] += 1
            edge[1] += elapsed
            edge[2] += elapsed - frame[1]
            if edge[4] != self.unit:
                edge[3] += 1
                edge[4] = self.unit

    def layer_of(self, callback: Callable) -> str:
        # A functools.partial reports the module "functools"; use its func.
        target = getattr(callback, "func", callback)
        module = getattr(target, "__module__", None)
        layer = self._module_layer.get(module)
        if layer is None:
            layer = self._module_layer[module] = layer_for_module(module or "")
        return layer

    def iterate(self, layer: str, iterable: Iterable) -> Iterator:
        """Yield from ``iterable`` with each step timed as ``layer``."""
        step = iter(iterable).__next__
        call = self.call
        while True:
            try:
                item = call(layer, step, (), {})
            except StopIteration:
                return
            yield item

    @contextlib.contextmanager
    def phase(self):
        """The timed phase: aggregates cover exactly this interval."""
        self._edges.clear()
        del self._stack[1:]
        self._stack[0][1] = 0
        for key in self.counts:
            self.counts[key] = 0
        for objects in self._captured.values():
            objects.clear()
        cpu, wall = time.process_time(), time.perf_counter_ns()
        try:
            yield self
        finally:
            self.wall_ns = time.perf_counter_ns() - wall
            self.cpu_s = time.process_time() - cpu

    def take_systems(self) -> List[tuple]:
        """(engine, memory controller, stats) built since the last call."""
        captured = self._captured
        systems = list(zip(captured["engine"], captured["memctrl"],
                           captured["stats"]))
        for objects in captured.values():
            objects.clear()
        return systems

    # --- install / restore ---------------------------------------------------

    def _wrap(self, layer: str, fn: Callable, name: str) -> Callable:
        call, counts = self.call, self.counts
        if name == "pop_ready":
            def wrapper(*args, **kwargs):
                result = call(layer, fn, args, kwargs)
                counts["pop_ready"] += 1
                counts["pop_ready_hits"] += result is not None
                return result
        elif name in ("try_enqueue", "try_enqueue_bulk"):
            def wrapper(*args, **kwargs):
                result = call(layer, fn, args, kwargs)
                counts["enqueue_refused"] += not result
                return result
        elif layer == "mem.datastore":
            def wrapper(*args, **kwargs):
                counts["store_blocks"] += _block_count(name, args)
                return call(layer, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return call(layer, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _patch(self, owner: object, name: str, replacement: object) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _wrap_schedule(self, schedule: Callable) -> Callable:
        call, layer_of = self.call, self.layer_of

        def dispatch(layer, callback, *args):
            return call(layer, callback, args, {})

        def wrapper(engine, when, callback, *args):
            return call("sim.engine", schedule,
                        (engine, when, dispatch, layer_of(callback),
                         callback) + args, {})
        wrapper.__wrapped__ = schedule
        return wrapper

    def _capture(self, kind: str, init: Callable) -> Callable:
        captured = self._captured[kind]

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            captured.append(obj)
        __init__.__wrapped__ = init
        return __init__

    def install(self) -> None:
        from repro.mem.controller import MemoryController
        from repro.sim.engine import Engine
        from repro.stats.collector import StatsCollector

        for owner, names, layer in _entry_points():
            for name in names:
                if name not in vars(owner):
                    continue             # inherited: wrapped on the base
                self._patch(owner, name,
                            self._wrap(layer, vars(owner)[name], name))
        for name in ("schedule", "schedule_at"):
            self._patch(Engine, name, self._wrap_schedule(vars(Engine)[name]))
        for kind, cls in (("engine", Engine), ("memctrl", MemoryController),
                          ("stats", StatsCollector)):
            self._patch(cls, "__init__",
                        self._capture(kind, vars(cls)["__init__"]))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --- results -------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        wall = self.wall_ns or 1
        calls = {layer: 0 for layer in LAYERS}
        self_ns = {layer: 0 for layer in LAYERS}
        for (_parent, layer), edge in self._edges.items():
            if layer in calls:
                calls[layer] += edge[0]
                self_ns[layer] += edge[2]
        metrics: Dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = calls[layer]
            metrics[f"{layer}.self_ms"] = self_ns[layer] / 1e6
            metrics[f"{layer}.self_pct"] = 100.0 * self_ns[layer] / wall
        counts = self.counts
        metrics["sim.queueing.pop_ready_yield"] = (
            counts["pop_ready_hits"] / counts["pop_ready"]
            if counts["pop_ready"] else 0.0)
        metrics["sim.queueing.enqueue_refused"] = counts["enqueue_refused"]
        metrics["mem.datastore.blocks"] = counts["store_blocks"]
        metrics["trace.named_pct"] = 100.0 * sum(self_ns.values()) / wall
        return metrics

    def edge_table(self) -> List[Dict[str, object]]:
        rows = [{"parent": parent, "layer": layer, "calls": edge[0],
                 "units": edge[3], "total_ms": round(edge[1] / 1e6, 3),
                 "self_ms": round(edge[2] / 1e6, 3)}
                for (parent, layer), edge in self._edges.items()]
        root_children = sum(edge[1] for (parent, _layer), edge
                            in self._edges.items() if parent == "root")
        rows.append({"parent": "-", "layer": "root", "calls": 1,
                     "units": 1, "total_ms": round(self.wall_ns / 1e6, 3),
                     "self_ms": round((self.wall_ns - root_children) / 1e6,
                                      3)})
        rows.sort(key=lambda row: -row["self_ms"])
        return rows
