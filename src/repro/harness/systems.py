"""Factory for the evaluated systems (§5.1).

``build_system(name, config)`` assembles a full machine — engine,
memory controller, consistency system, cache hierarchy, CPU core and a
stats collector — for any of the systems below;
``build_controller`` builds just the consistency system, for callers
that drive it directly (the fuzz runner, ``repro crashproc``):

* ``ideal_dram`` — DRAM-only, crash consistency assumed free,
* ``ideal_nvm``  — NVM-only, crash consistency assumed free,
* ``journal``    — DRAM+NVM with stop-the-world journaling,
* ``shadow``     — DRAM+NVM with stop-the-world shadow paging,
* ``thynvm``     — the paper's dual-scheme design,
* ``thynvm_block_only`` / ``thynvm_page_only`` — the Table 1 ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..baselines.ideal import IdealController
from ..baselines.journaling import JournalingController
from ..baselines.shadow import ShadowPagingController
from ..baselines.single_granularity import (block_only_policy,
                                            page_only_policy)
from ..cache.cache import Cache
from ..cache.hierarchy import CacheHierarchy
from ..config import SystemConfig
from ..core.controller import ThyNVMController, ThyNVMPolicy
from ..cpu.cluster import ExecutionCluster
from ..cpu.core import Core
from ..errors import ConfigError
from ..mem.controller import DeviceKind, MemoryController
from ..sim.engine import Engine
from ..stats.collector import StatsCollector

SYSTEM_NAMES = (
    "ideal_dram",
    "ideal_nvm",
    "journal",
    "shadow",
    "thynvm",
    "thynvm_block_only",
    "thynvm_page_only",
)

PRETTY_NAMES = {
    "ideal_dram": "Ideal DRAM",
    "ideal_nvm": "Ideal NVM",
    "journal": "Journal",
    "shadow": "Shadow",
    "thynvm": "ThyNVM",
    "thynvm_block_only": "ThyNVM (block-only)",
    "thynvm_page_only": "ThyNVM (page-only)",
}


@dataclass
class SimulatedSystem:
    """A fully wired machine ready to execute a trace.

    ``core``/``hierarchy`` are the first core's, for single-core use;
    multi-core machines (``config.num_cores > 1``) also expose the full
    ``cores`` list and the :class:`ExecutionCluster`.
    """

    name: str
    engine: Engine
    config: SystemConfig
    memctrl: MemoryController
    memsys: object            # the consistency controller (MemoryPort)
    hierarchy: CacheHierarchy
    core: Core
    stats: StatsCollector
    cores: List[Core] = None
    cluster: Optional[ExecutionCluster] = None

    def __post_init__(self) -> None:
        if self.cores is None:
            self.cores = [self.core]


#: The ThyNVM variants and the policy each defaults to.
_THYNVM_POLICIES: Dict[str, Callable[[], ThyNVMPolicy]] = {
    "thynvm": ThyNVMPolicy,
    "thynvm_block_only": block_only_policy,
    "thynvm_page_only": page_only_policy,
}


def build_controller(name: str, engine: Engine, config: SystemConfig,
                     memctrl: MemoryController, stats: StatsCollector,
                     policy: Optional[ThyNVMPolicy] = None) -> Any:
    """The consistency controller (MemoryPort) of system ``name``, not
    yet started.  ``policy`` overrides a ThyNVM variant's default."""
    if name in ("ideal_dram", "ideal_nvm"):
        device = DeviceKind.DRAM if name == "ideal_dram" else DeviceKind.NVM
        return IdealController(engine, config, memctrl, stats, device)
    if name == "journal":
        return JournalingController(engine, config, memctrl, stats)
    if name == "shadow":
        return ShadowPagingController(engine, config, memctrl, stats)
    if name not in _THYNVM_POLICIES:
        raise ConfigError(f"unknown system {name!r}; pick one of {SYSTEM_NAMES}")
    if policy is None:
        policy = _THYNVM_POLICIES[name]()
    return ThyNVMController(engine, config, memctrl, stats, policy)


def build_system(name: str, config: SystemConfig,
                 policy: Optional[ThyNVMPolicy] = None) -> SimulatedSystem:
    """Assemble one of the evaluated systems."""
    if name not in SYSTEM_NAMES:
        raise ConfigError(f"unknown system {name!r}; pick one of {SYSTEM_NAMES}")
    engine = Engine()
    stats = StatsCollector(config.block_bytes)
    memctrl = MemoryController(engine, config, stats)
    memsys = build_controller(name, engine, config, memctrl, stats, policy)

    if config.num_cores == 1:
        hierarchy = CacheHierarchy(engine, config, memsys, stats)
        core = Core(engine, config, hierarchy, stats)
        core.persist_port = memsys.persist_barrier
        memsys.attach_execution(core, hierarchy)
        return SimulatedSystem(name=name, engine=engine, config=config,
                               memctrl=memctrl, memsys=memsys,
                               hierarchy=hierarchy, core=core, stats=stats)

    shared_l3 = Cache("L3", config.shared_l3)
    hierarchies = [
        CacheHierarchy(engine, config, memsys, stats, shared_l3=shared_l3)
        for _ in range(config.num_cores)
    ]
    cores = [Core(engine, config, hierarchy, stats)
             for hierarchy in hierarchies]
    for core in cores:
        core.persist_port = memsys.persist_barrier
    cluster = ExecutionCluster(cores, hierarchies)
    memsys.attach_execution(cluster, cluster)
    return SimulatedSystem(name=name, engine=engine, config=config,
                           memctrl=memctrl, memsys=memsys,
                           hierarchy=hierarchies[0], core=cores[0],
                           stats=stats, cores=cores, cluster=cluster)
