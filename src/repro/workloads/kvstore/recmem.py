"""The simulated heap: real bytes plus an access recording.

Data structures read and write through this object.  Contents are kept
in a bytearray so pointers and keys round-trip faithfully; every access
is appended to a pending op list that the workload generator drains
into the CPU trace.  Between accesses the structures "compute" —
``work_per_access`` models the non-memory instructions per memory
operation.
"""

from __future__ import annotations

import struct
from typing import List

from ...cpu.trace import Op, OpKind, work
from ...errors import WorkloadError

_U64 = struct.Struct("<Q")
_READ, _WRITE = OpKind.READ, OpKind.WRITE

NULL = 0


class RecordingMemory:
    """Byte-addressable heap that records its own access trace."""

    def __init__(self, size: int, work_per_access: int = 4) -> None:
        if size <= 0:
            raise WorkloadError("heap size must be positive")
        self.size = size
        self.work_per_access = work_per_access
        # The compute between accesses: one immutable op, shared.
        self._work = work(work_per_access) if work_per_access else None
        self._bytes = bytearray(size)
        self._pending: List[Op] = []
        self.reads = 0
        self.writes = 0

    # --- raw access -----------------------------------------------------

    def _check(self, addr: int, length: int) -> None:
        if addr < 0 or addr + length > self.size:
            raise WorkloadError(
                f"heap access out of range: 0x{addr:x}+{length}")

    def _load(self, addr: int, length: int) -> None:
        """Check and record a load of ``length`` bytes (not zero)."""
        self._check(addr, length)
        if length < 0:
            raise WorkloadError("read op needs a positive size")
        self.reads += 1
        if self._work is not None:
            self._pending.append(self._work)
        self._pending.append(Op(_READ, addr, length))

    def read(self, addr: int, length: int) -> bytes:
        if length == 0:
            return b""   # zero-length loads touch no memory
        self._load(addr, length)
        return bytes(self._bytes[addr:addr + length])

    def write(self, addr: int, data: bytes) -> None:
        if not data:
            return   # zero-length stores touch no memory
        length = len(data)
        self._check(addr, length)
        self.writes += 1
        if self._work is not None:
            self._pending.append(self._work)
        self._pending.append(Op(_WRITE, addr, length))
        self._bytes[addr:addr + length] = data

    # --- typed helpers ------------------------------------------------------

    def read_u64(self, addr: int) -> int:
        self._load(addr, 8)
        return _U64.unpack_from(self._bytes, addr)[0]

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, _U64.pack(value))

    # --- trace draining --------------------------------------------------------

    def drain_ops(self) -> List[Op]:
        """Take the accesses recorded since the last drain."""
        ops, self._pending = self._pending, []
        return ops

    def pending_count(self) -> int:
        return len(self._pending)
