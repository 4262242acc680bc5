"""Staged execution of one checkpointing phase.

The paper prescribes a strict order (Figure 6(b)): (1) write the
temporarily-DRAM-buffered block working copies to NVM, (2) persist the
BTT, (3) write back dirty pages from DRAM to NVM, (4) persist the PTT,
then flush the NVM write queue and atomically set the commit bit.

:class:`CheckpointRun` executes such a plan as a list of *stages*, each
a list of :class:`Job` objects.  A stage's jobs are issued with queue
backpressure (never more in flight than the controller accepts) and the
next stage starts only after every job of the current stage has been
*serviced* by its device.  After the last stage the run drains the NVM
write queue, writes the commit record, and calls ``on_commit`` when
that write is durable.

Each system declares its plan once, as a module-level ``CHECKPOINT_PLAN``
literal of ``(role, Dest)`` pairs beside its planner: the role says what
a stage writes (``temp``, ``page``, ``log``, ``btt``, ...), the
:class:`Dest` rule where it lands relative to the committed record.
The planners walk that literal, :class:`CheckpointRun` reports each
finished stage's role to its owner, and
``tests/property/test_declared_plan.py`` audits every write against it.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, List, Optional, Sequence

from ..errors import SimulationError
from ..mem.controller import DeviceKind, MemoryController
from ..sim.engine import Engine
from ..sim.request import MemoryRequest, Origin
from . import probes
from .regions import REGION_B, other_region


class Dest(enum.Enum):
    """Where a declared checkpoint stage writes its objects."""

    COMPLEMENT = "complement"   # the region the committed copy is not in
    COMMITTED = "committed"     # the committed copy's own region (unsafe)
    HOME = "home"               # the Home Region (== region B), in place
    LOG = "log"                 # the redo-log area
    BACKUP = "backup"           # the BTT/PTT/CPU-state Backup Region

    def region(self, committed: int) -> int:
        """The checkpoint region this rule sends an object whose
        committed copy lives in region ``committed`` to."""
        if self is Dest.COMPLEMENT:
            return other_region(committed)
        if self is Dest.COMMITTED:
            return committed
        if self is Dest.HOME:
            return REGION_B
        raise SimulationError(f"{self.name} names no checkpoint region")


@dataclass
class Job:
    """One unit of checkpoint work.

    * ``src_kind is None`` — a plain write of ``data`` to the destination.
    * otherwise — a copy: read ``src_addr`` from ``src_kind``, then write
      the returned payload to ``dst_addr`` on ``dst_kind``.

    A copy job with ``count > 1`` covers a run of ``count`` blocks spaced
    ``stride`` bytes apart (a page flush).  It is executed as one bulk
    read run and one bulk write run (docs/PERFORMANCE.md) but paced,
    accounted and serviced block by block — the in-flight window, queue
    backpressure and device timing are identical to issuing ``count``
    single-block copy jobs.
    """

    dst_kind: DeviceKind
    dst_addr: int
    origin: Origin
    src_kind: Optional[DeviceKind] = None
    src_addr: int = 0
    data: Optional[bytes] = None
    count: int = 1
    stride: int = 0


class _BulkCopy:
    """Driver state for one bulk copy job: its read run (until fully
    admitted) and write run, plus write payloads that found the
    destination queue full and are parked (one retry waiter each, like
    a single copy job's write)."""

    __slots__ = ("job", "read", "write", "pending_data")

    def __init__(self, job: Job) -> None:
        if job.src_kind is None:
            raise SimulationError("bulk checkpoint jobs must be copies")
        self.job = job
        self.read: Optional[MemoryRequest] = None
        self.write: Optional[MemoryRequest] = None
        self.pending_data: Deque[Optional[bytes]] = deque()


class CheckpointRun:
    """Executes the staged jobs of one checkpointing phase."""

    def __init__(
        self,
        engine: Engine,
        memctrl: MemoryController,
        stages: Sequence[List[Job]],
        commit_addr: int,
        on_commit: Callable[[], None],
        max_in_flight: int = 16,
        on_stage: Optional[Callable[[int, str], None]] = None,
        roles: Sequence[str] = (),
    ) -> None:
        self.engine = engine
        self.memctrl = memctrl
        self.stages = [list(stage) for stage in stages]
        # The declared role of each stage, reported with its index.
        self.roles = list(roles) or [""] * len(self.stages)
        self.commit_addr = commit_addr
        self.on_commit = on_commit
        self.max_in_flight = max_in_flight
        self.on_stage = on_stage
        self._stage_index = -1
        self._pending: List[Job] = []
        self._outstanding = 0
        self._started = False
        self._finished = False
        self.start_time: Optional[int] = None
        self.end_time: Optional[int] = None

    # --- driving ----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.start_time = self.engine.now
        probes.notify("ckpt-start")
        self._next_stage()

    def _next_stage(self) -> None:
        if self._stage_index >= 0:
            # All of stage `_stage_index`'s writes are serviced (durable).
            probes.notify("stage-done", str(self._stage_index))
            if self.on_stage is not None:
                self.on_stage(self._stage_index,
                              self.roles[self._stage_index])
        self._stage_index += 1
        if self._stage_index >= len(self.stages):
            self._drain_and_commit()
            return
        self._pending = list(reversed(self.stages[self._stage_index]))
        self._pump()

    def _pump(self) -> None:
        """Issue work while slots and the in-flight budget allow.

        The in-flight unit is a *block*: a single job is one block, and
        a bulk job contributes one unit per admitted-but-unwritten
        block, so the window behaves exactly as it did when page
        flushes were ``count`` individual jobs.
        """
        if self._finished:
            return
        while self._pending and self._outstanding < self.max_in_flight:
            job = self._pending.pop()
            if isinstance(job, _BulkCopy):
                driver = job
            elif job.count > 1:
                driver = self._make_bulk(job)
            else:
                if not self._issue(job):
                    # Queue full: put it back and retry when a slot frees.
                    self._pending.append(job)
                    kind = (job.src_kind if job.src_kind is not None
                            else job.dst_kind)
                    is_write = job.src_kind is None
                    self.memctrl.wait_for_slot(kind, is_write, self._pump)
                    return
                continue
            outcome = self._pump_bulk(driver)
            if outcome is None:
                continue                     # every read block admitted
            self._pending.append(driver)
            if outcome == "full":
                self.memctrl.wait_for_slot(driver.job.src_kind, False,
                                           self._pump)
                return
            break                            # window full; _job_done resumes
        if not self._pending and self._outstanding == 0:
            self._next_stage()

    def _make_bulk(self, job: Job) -> _BulkCopy:
        driver = _BulkCopy(job)
        driver.read = MemoryRequest.bulk(
            job.src_addr, False, job.origin, job.count, job.stride,
            callback=partial(self._bulk_read_done, driver))
        driver.write = MemoryRequest.bulk(
            job.dst_addr, True, job.origin, job.count, job.stride,
            callback=self._bulk_block_written,
            carries_data=True)
        return driver

    def _pump_bulk(self, driver: _BulkCopy) -> Optional[str]:
        """Admit read blocks of a bulk copy until the run is fully
        admitted (None), the window fills ("window"), or the source
        queue rejects ("full")."""
        read = driver.read
        src_kind = driver.job.src_kind
        while read.issued < read.total:
            if self._outstanding >= self.max_in_flight:
                return "window"
            if not self.memctrl.bulk_admit_next(src_kind, read):
                return "full"
            self._outstanding += 1
        # The run's callback holds the driver until its last block; the
        # driver no longer needs the run, and holding it would be a cycle.
        driver.read = None
        return None

    def _bulk_read_done(self, driver: _BulkCopy, _run: MemoryRequest,
                        _index: int, payload: Optional[bytes]) -> None:
        """One block of a bulk copy has been read; write it out.

        Blocks of a run are serviced in order (they share a bank), so
        payloads arrive — and are written — in block order.  A payload
        that finds the destination queue full parks FIFO with one retry
        waiter, exactly like a single copy job's write.
        """
        if self._finished:
            return
        job = driver.job
        if driver.pending_data or not self.memctrl.bulk_admit_next(
                job.dst_kind, driver.write, payload):
            driver.pending_data.append(payload)
            self.memctrl.wait_for_slot(
                job.dst_kind, True, lambda: self._bulk_write_retry(driver))

    def _bulk_block_written(self, _run: MemoryRequest, _index: int,
                            _payload: Optional[bytes]) -> None:
        """One block of a bulk copy is durable — ``_job_done``, inlined
        (this fires once per written block)."""
        if self._finished:
            return
        probes.notify("bulk-write", str(self._stage_index))
        self._outstanding -= 1
        if not self._pending and self._outstanding == 0:
            self._next_stage()
        elif self._pending:
            self._pump()

    def _bulk_write_retry(self, driver: _BulkCopy) -> None:
        if self._finished:
            return
        job = driver.job
        data = driver.pending_data.popleft()
        if not self.memctrl.bulk_admit_next(job.dst_kind, driver.write, data):
            driver.pending_data.appendleft(data)
            self.memctrl.wait_for_slot(
                job.dst_kind, True, lambda: self._bulk_write_retry(driver))

    def _issue(self, job: Job) -> bool:
        if job.src_kind is None:
            request = MemoryRequest(
                job.dst_addr, True, job.origin, data=job.data,
                callback=lambda _r: self._job_done())
            accepted = self.memctrl.submit(job.dst_kind, request)
        else:
            request = MemoryRequest(
                job.src_addr, False, job.origin,
                callback=lambda r: self._copy_read_done(job, r))
            accepted = self.memctrl.submit(job.src_kind, request)
        if accepted:
            self._outstanding += 1
        return accepted

    def _copy_read_done(self, job: Job, read_req: MemoryRequest) -> None:
        if self._finished:
            return
        self.memctrl.submit_or_wait(job.dst_kind, MemoryRequest(
            job.dst_addr, True, job.origin, data=read_req.data,
            callback=lambda _r: self._job_done()))

    def _job_done(self) -> None:
        if self._finished:
            return
        self._outstanding -= 1
        if not self._pending and self._outstanding == 0:
            self._next_stage()
        elif self._pending:
            self._pump()

    # --- commit -----------------------------------------------------------------

    def _drain_and_commit(self) -> None:
        # §4.4: flush the NVM write queue — a fence over everything
        # enqueued so far (later demand writes don't delay the commit).
        probes.notify("fence")
        self.memctrl.fence_writes(DeviceKind.NVM, self._write_commit)

    def _write_commit(self) -> None:
        if self._finished:
            return
        probes.notify("commit-write")
        self.memctrl.submit_or_wait(DeviceKind.NVM, MemoryRequest(
            self.commit_addr, True, Origin.CHECKPOINT,
            callback=lambda _r: self._committed()))

    def _committed(self) -> None:
        if self._finished:
            return
        self._finished = True
        self.end_time = self.engine.now
        # The commit record is serviced: push the stores' contents to
        # their backing medium before flipping metadata, so a file-backed
        # store (docs/PERSISTENCE.md) is durable at exactly the protocol
        # commit point.  A fence-like effect on the store surface.
        probes.notify("store-sync")
        self.memctrl.msync()
        self.on_commit()

    def abort(self) -> None:
        """Crash handling: silence all future callbacks from this run."""
        self._finished = True
        # Drop the work that would call back into this run, and a bulk
        # copy's half-admitted read run, whose callback holds the copy.
        for job in self._pending:
            if isinstance(job, _BulkCopy):
                job.read = None
        self._pending = []

    @property
    def duration(self) -> Optional[int]:
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time
