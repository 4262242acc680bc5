"""Picklable trace *descriptions* for the parallel harness.

Workload traces are ordinarily Python generators — perfect for constant
memory, useless for shipping to a worker process.  A :class:`TraceSpec`
is the picklable recipe instead: workload kind plus the exact parameter
set, from which any process can rebuild the identical op stream (every
generator in :mod:`repro.workloads` is deterministic given its
parameters and seed).

Its :meth:`cache_token` is a stable textual rendering of the recipe,
the same across processes and Python invocations; a sweep point with
no explicit label is named by it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, Iterator, Tuple

from ..cpu.trace import Op
from ..errors import WorkloadError

_Params = Tuple[Tuple[str, object], ...]

MICRO_PATTERNS = ("random", "streaming", "sliding")


@dataclass(frozen=True)
class TraceSpec:
    """A rebuildable, hashable description of one workload trace."""

    kind: str                   # "micro" | "kv" | "spec" | "ycsb" | "file"
    params: _Params             # sorted (name, value) pairs

    def build(self) -> Iterator[Op]:
        """Regenerate the op stream this spec describes."""
        builder = _BUILDERS.get(self.kind)
        if builder is None:
            raise WorkloadError(
                f"unknown trace kind {self.kind!r}; "
                f"registered: {sorted(_BUILDERS)}")
        return builder(dict(self.params))

    def cache_token(self) -> str:
        """Stable text identifying the workload."""
        inner = ",".join(f"{name}={value!r}" for name, value in self.params)
        return f"{self.kind}({inner})"

    def __str__(self) -> str:
        return self.cache_token()


def _freeze(params: Dict[str, object]) -> _Params:
    return tuple(sorted(params.items()))


# --- constructors --------------------------------------------------------

def micro_spec(pattern: str, footprint: int, num_ops: int,
               **kwargs) -> TraceSpec:
    """Random/Streaming/Sliding micro-benchmark (see workloads.micro)."""
    pattern = pattern.lower()
    if pattern not in MICRO_PATTERNS:
        raise WorkloadError(
            f"unknown micro pattern {pattern!r}; one of {MICRO_PATTERNS}")
    params = {"pattern": pattern, "footprint": footprint,
              "num_ops": num_ops, **kwargs}
    return TraceSpec("micro", _freeze(params))


def kv_spec(**kwargs) -> TraceSpec:
    """Key-value-store workload; kwargs are KVWorkload fields."""
    from .kvstore.workload import KVWorkload

    workload = KVWorkload(**kwargs)       # validates eagerly
    return TraceSpec("kv", _freeze(asdict(workload)))


def spec_cpu_spec(benchmark: str, num_mem_ops: int, seed: int = 3) -> TraceSpec:
    """SPEC CPU2006 trace model (memory-intensive or compute set)."""
    _spec_model(benchmark)                # validates eagerly
    return TraceSpec("spec", _freeze({"benchmark": benchmark,
                                      "num_mem_ops": num_mem_ops,
                                      "seed": seed}))


def ycsb_spec(mix: str, **kwargs) -> TraceSpec:
    """YCSB core-mix preset over the key-value stores."""
    from .ycsb import YCSB_MIXES

    mix = mix.upper()
    if mix not in YCSB_MIXES:
        raise WorkloadError(
            f"unknown YCSB mix {mix!r}; choose from {sorted(YCSB_MIXES)}")
    return TraceSpec("ycsb", _freeze({"mix": mix, **kwargs}))


def tracefile_spec(path: str) -> TraceSpec:
    """A recorded trace file (workloads.tracefile format)."""
    return TraceSpec("file", _freeze({"path": str(path)}))


# --- builders ------------------------------------------------------------

def _build_micro(params: Dict[str, object]) -> Iterator[Op]:
    from .micro import random_trace, sliding_trace, streaming_trace

    factories = {"random": random_trace, "streaming": streaming_trace,
                 "sliding": sliding_trace}
    params = dict(params)
    factory = factories[params.pop("pattern")]
    return factory(**params)


def _build_kv(params: Dict[str, object]) -> Iterator[Op]:
    from .kvstore.workload import KVWorkload, kv_trace

    return kv_trace(KVWorkload(**params))


def _spec_model(benchmark: str):
    from .spec import SPEC_COMPUTE_MODELS, SPEC_MODELS

    model = SPEC_MODELS.get(benchmark) or SPEC_COMPUTE_MODELS.get(benchmark)
    if model is None:
        raise WorkloadError(
            f"unknown SPEC model {benchmark!r}; choose from "
            f"{sorted(SPEC_MODELS) + sorted(SPEC_COMPUTE_MODELS)}")
    return model


def _build_spec(params: Dict[str, object]) -> Iterator[Op]:
    from .spec import spec_trace

    return spec_trace(_spec_model(params["benchmark"]),
                      params["num_mem_ops"], seed=params["seed"])


def _build_ycsb(params: Dict[str, object]) -> Iterator[Op]:
    from .ycsb import ycsb_trace

    params = dict(params)
    return ycsb_trace(params.pop("mix"), **params)


def _build_file(params: Dict[str, object]) -> Iterable[Op]:
    from .tracefile import load_trace

    return load_trace(params["path"])


_BUILDERS: Dict[str, Callable[[Dict[str, object]], Iterable[Op]]] = {
    "micro": _build_micro,
    "kv": _build_kv,
    "spec": _build_spec,
    "ycsb": _build_ycsb,
    "file": _build_file,
}
