"""The controller lifecycle every epoch-based system shares (§3.1).

ThyNVM and the stop-the-world baselines run one epoch skeleton:
execute, flush, checkpoint, commit.  They differ only in whether the
checkpoint overlaps the next epoch's execution (ThyNVM, Figure 3(b))
or stalls it (journaling and shadow paging, Figure 3(a)).
:class:`EpochController` owns everything that skeleton shares:

* epoch sequencing through :class:`~repro.core.epoch.EpochManager`
  (the timer, overflow-forced ends, epoch extension);
* ``start``/``stop``/``crash`` and the crashed gate on entry points;
* loads (``read_block``, ``visible_block_bytes``) over the scheme's
  :meth:`_read_location`, the retrying write issue, and the bulk runs
  every page copy's timed traffic travels as (docs/PERFORMANCE.md);
* ``persist_barrier``, keyed on :attr:`committed_epoch`;
* ``drain``, which forces :attr:`DRAIN_ROUNDS` epoch boundaries;
* parking writes that found no buffer space, and replaying them.

A scheme supplies where a block's visible copy lives
(:meth:`_read_location`), write steering (:meth:`write_block`), the
epoch-end sequence (:meth:`_on_epoch_end`: freeze the CPU, flush it,
plan and run the checkpoint) and its commit.  The commit writes the
recovery record, then calls :meth:`_replay_deferred_writes`,
:meth:`_fire_persist_waiters` and :meth:`_drain_step` at the points
of the scheme's own event order.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..config import SystemConfig
from ..errors import CrashedError, SimulationError
from ..mem.address import AddressMap
from ..mem.controller import DeviceKind, MemoryController
from ..sim.engine import Engine
from ..sim.request import MemoryRequest, Origin
from ..stats.collector import StatsCollector
from .checkpoint import CheckpointRun
from .epoch import EpochManager
from .regions import HardwareLayout


class EpochController:
    """Epoch-based crash-consistent memory: the shared lifecycle."""

    #: Forced epoch boundaries :meth:`drain` runs before calling back.
    DRAIN_ROUNDS = 1

    def __init__(self, engine: Engine, config: SystemConfig,
                 memctrl: MemoryController, stats: StatsCollector) -> None:
        self.engine = engine
        self.config = config
        self.memctrl = memctrl
        self.stats = stats
        self.layout = HardwareLayout(config)
        self.addresses = AddressMap(config)
        self.epochs = EpochManager(engine, config.epoch_cycles,
                                   self._on_epoch_end)

        # Execution complex (optional; direct-driven tests have none).
        self.core = None
        self.hierarchy = None

        self._ckpt_run: Optional[CheckpointRun] = None
        self._aux_run: Optional[CheckpointRun] = None
        self._deferred_writes: List[Tuple] = []
        # §6 explicit persistence: (epoch-to-cover, callback) waiters.
        self._persist_waiters: List[Tuple[int, Callable[[], None]]] = []
        self._drain_cb: Optional[Callable[[], None]] = None
        self._drain_rounds = 0
        self._crashed = False
        self._started = False

    # --- wiring ------------------------------------------------------------

    def attach_execution(self, core, hierarchy) -> None:
        """Connect the CPU complex so epoch boundaries can flush it."""
        self.core = core
        self.hierarchy = hierarchy
        if hierarchy is not None:
            hierarchy.set_dirty_pressure(
                self._dirty_pressure_threshold(),
                lambda: self.epochs.request_end("overflow"))

    def _dirty_pressure_threshold(self) -> int:
        """Dirty-cache watermark that forces an early epoch end, sized
        so the boundary flush fits what the scheme can absorb."""
        raise NotImplementedError

    def start(self) -> None:
        """Arm the epoch timer; call once before simulation starts."""
        if self._crashed:
            raise CrashedError("controller has crashed; recover() it instead")
        if self._started:
            raise SimulationError("controller already started")
        self._started = True
        self.epochs.start()

    @property
    def crashed(self) -> bool:
        """True once :meth:`crash` has been called."""
        return self._crashed

    def stop(self) -> None:
        """Stop generating epochs (end of run); in-flight work finishes."""
        self.epochs.stop()

    @property
    def committed_epoch(self) -> int:
        """Newest epoch whose checkpoint has committed (-1: none yet)."""
        raise NotImplementedError

    # --- MemoryPort ----------------------------------------------------------

    def read_block(self, addr: int, origin: Origin,
                   callback: Callable[[MemoryRequest], None]) -> None:
        """Service a load from the software-visible version."""
        if self._crashed:
            raise CrashedError("read_block on a crashed controller")
        block = self.addresses.block_index(addr)
        kind, hw_addr = self._read_location(block)
        self.engine.schedule(self.config.table_lookup_latency,
                             self._submit_read, kind, hw_addr, origin,
                             callback)

    def _submit_read(self, kind: DeviceKind, hw_addr: int, origin: Origin,
                     callback: Callable[[MemoryRequest], None]) -> None:
        """The load, once the table lookup has taken its cycles."""
        if self._crashed:
            return
        self.memctrl.submit_or_wait(
            kind, MemoryRequest(hw_addr, False, origin, callback=callback))

    def write_block(self, addr: int, origin: Origin,
                    data: Optional[bytes] = None,
                    callback: Optional[Callable[[MemoryRequest], None]] = None,
                    on_accept: Optional[Callable[[], None]] = None,
                    ) -> None:
        """Service a store, steered by the scheme.

        ``on_accept`` fires when the write is accepted into a device
        queue; ``callback`` fires when it is serviced.
        """
        raise NotImplementedError

    def _read_location(self, block: int) -> Tuple[DeviceKind, int]:
        """Device + hardware address of ``block``'s visible version."""
        raise NotImplementedError

    def visible_block_bytes(self, block: int) -> bytes:
        """Current software-visible contents of a physical block."""
        kind, hw_addr = self._read_location(block)
        return self.memctrl.functional_store(kind).read(hw_addr)

    # --- write issue -----------------------------------------------------------

    def _issue_write(self, kind: DeviceKind, hw_addr: int, origin: Origin,
                     data, callback, on_accept=None) -> None:
        if self._crashed:
            return
        self.memctrl.submit_or_wait(
            kind, MemoryRequest(hw_addr, True, origin, data=data,
                                callback=callback), on_accept)

    def _issue_bulk_read_traffic(self, kind: DeviceKind, base_addr: int,
                                 origin: Origin, count: int,
                                 stride: int) -> None:
        """Timed read run whose results are discarded (traffic accounting).

        One bulk submission replaces ``count`` single requests; the
        controller drives the whole run to admission with per-block
        backpressure, so no retry closure per block is needed here.  A
        one-block run is the single request it stands for."""
        if count == 1:
            self.memctrl.submit_or_wait(
                kind, MemoryRequest(base_addr, False, origin))
            return
        request = MemoryRequest.bulk(base_addr, False, origin, count, stride)
        self.memctrl.submit_bulk(kind, request)

    def _issue_bulk_write_traffic(self, kind: DeviceKind, base_addr: int,
                                  origin: Origin, count: int, stride: int,
                                  data: Optional[bytes] = None,
                                  callback=None) -> None:
        """Timed write run.

        Payload-free by default: functional contents are placed
        separately, so a late-serviced block can never clobber a younger
        same-address demand write.  With ``data`` (the run's ``count``
        blocks back to back) each block carries its own slice to the
        store at its service, as a single write with a payload does.
        ``callback(run, index, payload)`` fires as each block is
        serviced.  A one-block run is the single request it stands for,
        with its payload, and its callback fires once at its service."""
        if count == 1:
            done = (None if callback is None
                    else lambda request: callback(request, 0, None))
            self.memctrl.submit_or_wait(
                kind, MemoryRequest(base_addr, True, origin, data=data,
                                    callback=done))
            return
        request = MemoryRequest.bulk(base_addr, True, origin, count, stride,
                                     callback=callback,
                                     carries_data=data is not None)
        if data is not None:
            size = self.config.block_bytes
            request.block_data = [data[start:start + size]
                                  for start in range(0, len(data), size)]
        self.memctrl.submit_bulk(kind, request)

    def _park_write(self, addr: int, origin: Origin, data, callback,
                    on_accept) -> None:
        """Acknowledge a write that cannot be placed now; it is replayed
        by the next :meth:`_replay_deferred_writes`."""
        if on_accept is not None:
            on_accept()
        self._deferred_writes.append((addr, origin, data, callback, None))

    def _replay_deferred_writes(self, ahead: Sequence[Tuple] = ()
                                ) -> None:
        """Re-steer every parked write (``ahead`` first).  A write that
        parks again waits for the next replay."""
        deferred, self._deferred_writes = self._deferred_writes, []
        for addr, origin, data, callback, on_accept in [*ahead, *deferred]:
            self.write_block(addr, origin, data, callback, on_accept)

    # --- epoch boundary ----------------------------------------------------------

    def force_epoch_end(self, reason: str = "manual") -> None:
        """Public hook: end the active epoch as soon as possible."""
        if self._crashed:
            raise CrashedError("force_epoch_end on a crashed controller")
        self.epochs.request_end(reason)

    def _on_epoch_end(self, reason: str) -> None:
        """The epoch manager ended the active epoch: freeze and flush
        the CPU, then plan and run the checkpoint."""
        raise NotImplementedError

    def _account_commit(self) -> None:
        """The epoch checkpoint committed: count it and its duration."""
        run, self._ckpt_run = self._ckpt_run, None
        if run is not None and run.duration is not None:
            self.stats.checkpoint_busy_cycles += run.duration
            self.stats.checkpoint_duration.record(run.duration)
        self.stats.epochs_completed += 1

    def persist_barrier(self, callback: Callable[[], None]) -> None:
        """Durability barrier (§6's explicit persistence instruction).

        Ends the active epoch and fires ``callback`` once a checkpoint
        covering every store issued so far has committed.
        """
        if self._crashed:
            raise CrashedError("persist_barrier on a crashed controller")
        self._persist_waiters.append((self.epochs.active_epoch, callback))
        self.epochs.request_end("persist")

    def _fire_persist_waiters(self) -> None:
        committed = self.committed_epoch
        ready = [cb for target, cb in self._persist_waiters
                 if committed >= target]
        self._persist_waiters = [(t, cb) for t, cb in self._persist_waiters
                                 if committed < t]
        for callback in ready:
            callback()

    # --- drain (end of a benchmark run) --------------------------------------------

    def drain(self, on_done: Callable[[], None]) -> None:
        """Force :attr:`DRAIN_ROUNDS` epoch boundaries, then call back."""
        if self._crashed:
            raise CrashedError("drain on a crashed controller")
        if self._drain_cb is not None:
            raise SimulationError("drain already in progress")
        self._drain_cb = on_done
        self._drain_rounds = self.DRAIN_ROUNDS
        self.epochs.request_end("drain")

    def _drain_step(self) -> None:
        """A commit landed: start the next drain round, or finish."""
        if self._drain_cb is None:
            return
        self._drain_rounds -= 1
        if self._drain_rounds > 0:
            self.epochs.request_end("drain")
            return
        callback, self._drain_cb = self._drain_cb, None
        callback()

    # --- crash and power-on ------------------------------------------------------------

    def crash(self) -> None:
        """Power failure: volatile state (DRAM, queues, live tables,
        CPU, caches) is lost; NVM and its recovery record survive."""
        if self._crashed:
            raise CrashedError("controller has already crashed")
        self._crashed = True
        if self._ckpt_run is not None:
            self._ckpt_run.abort()
            self._ckpt_run = None
        if self._aux_run is not None:
            self._aux_run.abort()
            self._aux_run = None
        self.memctrl.crash()
        if self.core is not None:
            self.core.kill()
        if self.hierarchy is not None:
            self.hierarchy.invalidate_all()

    def _power_on(self, epoch: int) -> None:
        """Restart after a crash with ``epoch`` executing: nothing in
        flight, parked or waiting, and a fresh epoch timer."""
        self._ckpt_run = None
        self._aux_run = None
        self._deferred_writes = []
        self._persist_waiters = []
        self._drain_cb = None
        self._drain_rounds = 0
        self.epochs = EpochManager(self.engine, self.config.epoch_cycles,
                                   self._on_epoch_end)
        self.epochs.active_epoch = epoch
        self.memctrl.power_on()
        self._crashed = False
        self.epochs.start()
