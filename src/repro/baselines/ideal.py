"""Ideal DRAM / Ideal NVM baselines.

A single-device main memory "assumed to provide crash consistency
without any overhead" (§5.1): no epochs, no checkpoint traffic, no
stalls — loads and stores go straight to the device at their physical
address.  These anchor the top (Ideal DRAM) and a reference point
(Ideal NVM) of every performance figure.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..config import SystemConfig
from ..errors import CrashedError
from ..mem.address import AddressMap
from ..mem.controller import DeviceKind, MemoryController
from ..sim.engine import Engine
from ..sim.request import MemoryRequest, Origin
from ..stats.collector import StatsCollector


class IdealController:
    """Pass-through memory system over one device."""

    def __init__(self, engine: Engine, config: SystemConfig,
                 memctrl: MemoryController, stats: StatsCollector,
                 device: DeviceKind) -> None:
        self.engine = engine
        self.config = config
        self.memctrl = memctrl
        self.stats = stats
        self.device = device
        self.addresses = AddressMap(config)
        self.core = None
        self.hierarchy = None
        self._crashed = False

    # --- wiring (same surface as ThyNVMController) ------------------------

    def attach_execution(self, core, hierarchy) -> None:
        self.core = core
        self.hierarchy = hierarchy

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    # --- MemoryPort ----------------------------------------------------------

    def read_block(self, addr: int, origin: Origin,
                   callback: Callable[[MemoryRequest], None]) -> None:
        if self._crashed:
            raise CrashedError("read_block on a crashed controller")
        self.memctrl.submit_or_wait(self.device, MemoryRequest(
            self.addresses.block_align(addr), False, origin,
            callback=callback))

    def write_block(self, addr: int, origin: Origin,
                    data: Optional[bytes] = None,
                    callback=None, on_accept=None) -> None:
        if self._crashed:
            raise CrashedError("write_block on a crashed controller")
        self.memctrl.submit_or_wait(self.device, MemoryRequest(
            self.addresses.block_align(addr), True, origin, data=data,
            callback=callback), on_accept)

    # --- run lifecycle ----------------------------------------------------------

    def drain(self, on_done: Callable[[], None]) -> None:
        """Flush caches so the run's write traffic is fully accounted."""
        if self._crashed:
            raise CrashedError("drain on a crashed controller")
        if self.hierarchy is not None:
            self.hierarchy.flush_dirty(Origin.FLUSH, lambda _n: on_done())
        else:
            on_done()

    @property
    def crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        if self._crashed:
            raise CrashedError("controller has already crashed")
        self._crashed = True
        self.memctrl.crash()
        if self.core is not None:
            self.core.kill()
        if self.hierarchy is not None:
            self.hierarchy.invalidate_all()

    def force_epoch_end(self, reason: str = "manual") -> None:
        """No epochs in the ideal systems; provided for API parity."""

    def persist_barrier(self, callback) -> None:
        """Ideal systems persist for free: the barrier is immediate."""
        callback()

    def visible_block_bytes(self, block: int) -> bytes:
        store = self.memctrl.functional_store(self.device)
        return store.read(block * self.config.block_bytes)
