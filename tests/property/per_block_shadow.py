"""Per-block shadow paging: the oracle for the batched bulk-run core.

``ShadowPagingController`` issues each page copy-on-write as one NVM
read run plus one DRAM write run, and each page flush as one copy job
of ``blocks_per_page`` blocks (docs/PERFORMANCE.md).  The runs are
serviced block by block, so timing must equal the per-block request
storm they replaced.  :class:`PerBlockShadow` is that storm: it
overrides the controller's three bulk seams to issue one request, or
one single-block copy job, per block.  Tests swap it in for the shipped
class with::

    monkeypatch.setattr(repro.harness.systems, "ShadowPagingController",
                        PerBlockShadow)

which reaches both ``build_system`` and the fuzz ``census`` through
``build_controller``.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.baselines.shadow import ShadowPagingController
from repro.core.checkpoint import Job
from repro.mem.controller import DeviceKind
from repro.sim.request import MemoryRequest, Origin


class PerBlockShadow(ShadowPagingController):
    """Shadow paging that issues every bulk transfer one block at a time."""

    def _issue_bulk_read_traffic(self, kind: DeviceKind, base_addr: int,
                                 origin: Origin, count: int,
                                 stride: int) -> None:
        for index in range(count):
            self._issue_read(kind, base_addr + index * stride, origin)

    def _issue_bulk_write_traffic(self, kind: DeviceKind, base_addr: int,
                                  origin: Origin, count: int,
                                  stride: int) -> None:
        for index in range(count):
            self._issue_write(kind, base_addr + index * stride, origin,
                              None, None)

    def _issue_read(self, kind: DeviceKind, hw_addr: int,
                    origin: Origin) -> None:
        """Timed single read whose result is discarded, retried on a
        full queue."""
        request = MemoryRequest(hw_addr, False, origin)

        def try_submit() -> None:
            if self._crashed:
                return
            if not self.memctrl.submit(kind, request):
                self.memctrl.wait_for_slot(kind, False, try_submit)

        try_submit()

    def _checkpoint_stages(self) -> List[List[Job]]:
        return [[single for job in stage for single in _per_block(job)]
                for stage in super()._checkpoint_stages()]


def _per_block(job: Job) -> List[Job]:
    """``job`` as ``job.count`` single-block copy jobs."""
    return [dataclasses.replace(job, count=1, stride=0,
                                dst_addr=job.dst_addr + index * job.stride,
                                src_addr=job.src_addr + index * job.stride)
            for index in range(job.count)]
