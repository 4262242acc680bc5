"""A file/mmap-backed datastore: durable bytes in a real mapped file.

The dict-backed :class:`~repro.mem.datastore.FunctionalStore` vanishes
with the process and caps footprints at Python-heap scale.
:class:`MmapStore` implements the same datastore protocol against a
memory-mapped file, so

* a fresh process can *attach* to an existing image (reopen detection
  via the magic number) — the basis of cross-process kill -9 crash
  testing (``repro crashproc``, docs/PERSISTENCE.md), and
* footprints scale to GB out-of-core: the data region is a sparse file
  and the OS pages it, so capacity is disk, not heap.

File layout (all regions page-aligned)::

    +-----------------+ 0
    | header page     |   magic, layout version, block_bytes,
    |                 |   region/capacity table, header CRC
    +-----------------+ bitmap_offset
    | allocation      |   1 bit per block: "has been written"
    | bitmap          |   (unwritten blocks read as zeros)
    +-----------------+ meta_offset
    | meta records    |   2 ping-pong slots for the recovery record
    | (slot A, B)     |   (seq, length, CRC32, payload)
    +-----------------+ data_offset
    | flat data       |   capacity_blocks x block_bytes
    | region          |
    +-----------------+

Bulk runs (``write_run``/``read_run``) are single ``mmap`` slice
copies — a 64-block page copy is one buffer splice, not 64 block
writes.  The meta slots hold the recovery record each controller
writes at its own durability point (committed translation tables,
shadow page map, journal log directory; format in
:mod:`repro.core.recovery`) next to the data it governs; the ping-pong
+ CRC scheme makes a torn meta write fall back to the previous record,
mirroring the commit-record discipline of the protocols themselves.

Durability model: the mapping is ``MAP_SHARED``, so serviced bytes
live in the page cache and survive ``SIGKILL`` of the writing process
— the store models *process*-crash durability by construction.
``msync()`` additionally flushes to the medium according to the
configured policy (``none`` / ``commit`` / ``always``).
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from typing import Optional, Tuple

from ..errors import ConfigError, RecoveryError
from .datastore import (META_PAYLOAD_MAX, RunData, check_meta_payload,
                        check_run_payload)

#: Identifies a ThyNVM-repro store image (8 bytes at offset 0).
MAGIC = b"THYNVMST"
#: Bumped whenever the on-disk layout changes incompatibly.
LAYOUT_VERSION = 1

_PAGE = 4096

# magic, version, block_bytes, capacity_blocks, bitmap_offset,
# bitmap_bytes, meta_offset, meta_slot_bytes, data_offset, total_bytes
_HEADER = struct.Struct("<8sIQQQQQQQQ")
_HEADER_CRC = struct.Struct("<I")
# seq, payload length, payload CRC32
_META = struct.Struct("<QQI")
#: Capacity of one meta record slot (header + payload): 64 KiB.
META_SLOT_BYTES = _META.size + META_PAYLOAD_MAX

MSYNC_POLICIES = ("none", "commit", "always")


def _page_round(size: int) -> int:
    return (size + _PAGE - 1) // _PAGE * _PAGE


def _popcount(value: int) -> int:
    try:
        return value.bit_count()
    except AttributeError:  # pragma: no cover - Python < 3.10
        return bin(value).count("1")


class MmapStore:
    """Datastore protocol over a memory-mapped file.

    ``capacity_bytes`` bounds the addressable data region; addresses
    must be block-aligned and inside it.  If ``path`` already holds a
    valid image with matching geometry the store *attaches* to it
    (``self.attached``); an empty or absent file is initialised fresh;
    anything else is refused rather than clobbered.
    """

    __slots__ = ("block_bytes", "capacity_blocks", "path", "attached",
                 "_sync_enabled", "_sync_on_write", "_zero",
                 "_bitmap_offset", "_bitmap_bytes", "_meta_offset",
                 "_data_offset", "_total_bytes", "_fd", "_map",
                 "_bitmap", "_written", "_meta_seq",
                 "_dirty_lo", "_dirty_hi")

    def __init__(self, block_bytes: int, capacity_bytes: int, path: str,
                 msync_policy: str = "commit",
                 must_exist: bool = False) -> None:
        if block_bytes <= 0:
            raise ConfigError(f"block_bytes must be positive: {block_bytes}")
        if capacity_bytes <= 0 or capacity_bytes % block_bytes:
            raise ConfigError(
                f"capacity_bytes must be a positive multiple of "
                f"block_bytes: {capacity_bytes}")
        if msync_policy not in MSYNC_POLICIES:
            raise ConfigError(
                f"unknown msync policy {msync_policy!r} "
                f"(have: {', '.join(MSYNC_POLICIES)})")
        self.block_bytes = block_bytes
        self.capacity_blocks = capacity_bytes // block_bytes
        self.path = os.fspath(path)
        self._sync_enabled = msync_policy != "none"
        self._sync_on_write = msync_policy == "always"
        self._zero = bytes(block_bytes)

        self._bitmap_offset = _PAGE
        self._bitmap_bytes = (self.capacity_blocks + 7) // 8
        self._meta_offset = self._bitmap_offset + _page_round(
            self._bitmap_bytes)
        self._data_offset = self._meta_offset + 2 * META_SLOT_BYTES
        self._total_bytes = self._data_offset + _page_round(capacity_bytes)
        # Data-region bytes written since the last medium flush; msync
        # only walks this span (empty when _dirty_hi <= _dirty_lo).
        self._dirty_lo = self._total_bytes
        self._dirty_hi = 0

        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            existing = os.fstat(self._fd).st_size
            self.attached = existing > 0
            if must_exist and not self.attached:
                raise RecoveryError(
                    f"no store image to attach at {self.path}")
            if self.attached:
                self._validate_header(existing)
            else:
                os.ftruncate(self._fd, self._total_bytes)
            self._map = mmap.mmap(self._fd, self._total_bytes,
                                  mmap.MAP_SHARED)
        except BaseException:
            os.close(self._fd)
            self._fd = -1
            raise
        if not self.attached:
            self._write_header()
        # Process-local mirror of the allocation bitmap: reads hit the
        # bytearray, mutations write through to the mapped page.  Block
        # reads/writes are the simulator's innermost loop; per-byte
        # ``mmap`` subscripts there are measurably slower than bytearray
        # ones.
        self._bitmap = bytearray(self._read_bitmap())
        self._written = _popcount(int.from_bytes(self._bitmap, "little"))
        self._meta_seq: Optional[int] = None

    # ------------------------------------------------------------------
    # header / attach

    def _validate_header(self, file_size: int) -> None:
        if file_size < _HEADER.size + _HEADER_CRC.size:
            raise RecoveryError(
                f"{self.path}: file too short to hold a store header")
        raw = os.pread(self._fd, _HEADER.size + _HEADER_CRC.size, 0)
        (magic, version, block_bytes, capacity_blocks, bitmap_offset,
         bitmap_bytes, meta_offset, meta_slot_bytes, data_offset,
         total_bytes) = _HEADER.unpack_from(raw)
        if magic != MAGIC:
            raise RecoveryError(
                f"{self.path}: not a store image (bad magic {magic!r})")
        (crc,) = _HEADER_CRC.unpack_from(raw, _HEADER.size)
        if crc != zlib.crc32(raw[:_HEADER.size]):
            raise RecoveryError(f"{self.path}: store header CRC mismatch")
        if version != LAYOUT_VERSION:
            raise RecoveryError(
                f"{self.path}: layout version {version}, "
                f"expected {LAYOUT_VERSION}")
        expected = (block_bytes, capacity_blocks, bitmap_offset,
                    bitmap_bytes, meta_offset, meta_slot_bytes,
                    data_offset, total_bytes)
        ours = (self.block_bytes, self.capacity_blocks,
                self._bitmap_offset, self._bitmap_bytes,
                self._meta_offset, META_SLOT_BYTES,
                self._data_offset, self._total_bytes)
        if expected != ours:
            raise ConfigError(
                f"{self.path}: image geometry {expected} does not match "
                f"configured geometry {ours}")
        if file_size < total_bytes:
            raise RecoveryError(
                f"{self.path}: truncated image ({file_size} < {total_bytes})")

    def _write_header(self) -> None:
        raw = _HEADER.pack(MAGIC, LAYOUT_VERSION, self.block_bytes,
                           self.capacity_blocks, self._bitmap_offset,
                           self._bitmap_bytes, self._meta_offset,
                           META_SLOT_BYTES, self._data_offset,
                           self._total_bytes)
        self._map[0:len(raw)] = raw
        self._map[len(raw):len(raw) + _HEADER_CRC.size] = _HEADER_CRC.pack(
            zlib.crc32(raw))

    def _read_bitmap(self) -> bytes:
        return self._map[self._bitmap_offset:
                         self._bitmap_offset + self._bitmap_bytes]

    # ------------------------------------------------------------------
    # address decode / bitmap

    def _index(self, addr: int) -> int:
        index, offset = divmod(addr, self.block_bytes)
        if offset:
            raise ValueError(
                f"address 0x{addr:x} is not {self.block_bytes}-byte aligned")
        if not 0 <= index < self.capacity_blocks:
            raise ValueError(
                f"address 0x{addr:x} outside store capacity "
                f"({self.capacity_blocks} blocks)")
        return index

    def _bit(self, index: int) -> bool:
        return bool(self._bitmap[index >> 3] & (1 << (index & 7)))

    def _set_bit(self, index: int) -> None:
        pos = index >> 3
        mask = 1 << (index & 7)
        current = self._bitmap[pos]
        if not current & mask:
            value = current | mask
            self._bitmap[pos] = value
            self._map[self._bitmap_offset + pos] = value
            self._written += 1

    def _set_run_bits(self, index: int, count: int) -> None:
        """Mark a whole run written: one big-int mask merge, not a
        per-block loop (runs are the controller's bulk fast path)."""
        byte_lo = index >> 3
        byte_hi = (index + count + 7) >> 3
        chunk = int.from_bytes(self._bitmap[byte_lo:byte_hi], "little")
        merged = chunk | ((1 << count) - 1) << (index & 7)
        if merged != chunk:
            self._written += _popcount(merged ^ chunk)
            raw = merged.to_bytes(byte_hi - byte_lo, "little")
            self._bitmap[byte_lo:byte_hi] = raw
            self._map[self._bitmap_offset + byte_lo:
                      self._bitmap_offset + byte_hi] = raw

    def _run_bits(self, index: int, count: int) -> Tuple[int, int]:
        """(written bits, full mask) for a run, both as ints anchored
        at the run's first block."""
        byte_lo = index >> 3
        chunk = int.from_bytes(
            self._bitmap[byte_lo:(index + count + 7) >> 3], "little")
        mask = (1 << count) - 1
        return (chunk >> (index & 7)) & mask, mask

    # ------------------------------------------------------------------
    # block ops

    def write(self, addr: int, data: Optional[bytes]) -> None:
        """Store one block.  ``None`` payloads are ignored (timing-only)."""
        if data is None:
            return
        block_bytes = self.block_bytes
        if len(data) != block_bytes:
            raise ValueError(
                f"payload must be {block_bytes} bytes, got {len(data)}")
        # Innermost simulator loop: _index/_set_bit inlined — the call
        # overhead alone is comparable to the splice being timed.
        index = addr // block_bytes
        if addr - index * block_bytes or not 0 <= index < \
                self.capacity_blocks:
            self._index(addr)            # raise the canonical error
        offset = self._data_offset + index * block_bytes
        self._map[offset:offset + block_bytes] = data
        if offset < self._dirty_lo:
            self._dirty_lo = offset
        if offset + block_bytes > self._dirty_hi:
            self._dirty_hi = offset + block_bytes
        pos = index >> 3
        mask = 1 << (index & 7)
        current = self._bitmap[pos]
        if not current & mask:
            value = current | mask
            self._bitmap[pos] = value
            self._map[self._bitmap_offset + pos] = value
            self._written += 1
        if self._sync_on_write:
            self._map.flush()

    def read(self, addr: int) -> bytes:
        """Read one block; unwritten blocks read as (cached) zeros."""
        block_bytes = self.block_bytes
        index = addr // block_bytes
        if addr - index * block_bytes or not 0 <= index < \
                self.capacity_blocks:
            self._index(addr)            # raise the canonical error
        if not self._bitmap[index >> 3] & (1 << (index & 7)):
            return self._zero
        offset = self._data_offset + index * block_bytes
        return self._map[offset:offset + block_bytes]

    def copy_block(self, src: int, dst: int) -> None:
        """Device-internal copy used by recovery/migration helpers."""
        self.write(dst, self.read(src))

    def erase(self) -> None:
        """Lose all contents (clears the bitmap; data region untouched)."""
        self._map[self._bitmap_offset:
                  self._bitmap_offset + self._bitmap_bytes] = bytes(
                      self._bitmap_bytes)
        self._bitmap = bytearray(self._bitmap_bytes)
        self._written = 0

    # ------------------------------------------------------------------
    # bulk ops — single mmap slice copies

    def write_run(self, addr: int, count: int, data: RunData) -> None:
        """Store ``count`` consecutive blocks as one buffer splice."""
        if count <= 0:
            raise ValueError(f"run count must be positive, got {count}")
        index = self._index(addr)
        self._index(addr + (count - 1) * self.block_bytes)
        block_bytes = self.block_bytes
        check_run_payload(data, count, block_bytes)
        base = self._data_offset + index * block_bytes
        end = base + count * block_bytes
        if base < self._dirty_lo:
            self._dirty_lo = base
        if end > self._dirty_hi:
            self._dirty_hi = end
        self._map[base:end] = data
        self._set_run_bits(index, count)
        if self._sync_on_write:
            self._map.flush()

    def read_run(self, addr: int, count: int) -> bytes:
        """Read ``count`` consecutive blocks as one contiguous buffer."""
        if count <= 0:
            raise ValueError(f"run count must be positive, got {count}")
        index = self._index(addr)
        self._index(addr + (count - 1) * self.block_bytes)
        block_bytes = self.block_bytes
        base = self._data_offset + index * block_bytes
        bits, mask = self._run_bits(index, count)
        if bits == mask:
            return self._map[base:base + count * block_bytes]
        if not bits:
            return bytes(count * block_bytes)
        return b"".join(
            self._map[base + i * block_bytes:base + (i + 1) * block_bytes]
            if bits >> i & 1 else self._zero
            for i in range(count))

    # ------------------------------------------------------------------
    # durability / meta records

    def msync(self) -> None:
        """Flush the mapping to the medium, per the msync policy.

        The kernel walk is priced per page examined, not per dirty
        page, so a full-map flush on a GB image costs real time even
        when almost nothing changed.  The front region (header,
        bitmap, meta) is small and flushed wholesale; the data region
        only over the span written since the last flush.
        """
        if not self._sync_enabled:
            return
        self._map.flush(0, self._data_offset)
        lo, hi = self._dirty_lo, self._dirty_hi
        if hi > lo:
            lo &= -_PAGE
            hi = min(self._total_bytes, (hi + _PAGE - 1) & -_PAGE)
            self._map.flush(lo, hi - lo)
            self._dirty_lo = self._total_bytes
            self._dirty_hi = 0

    def _meta_slot(self, slot: int) -> Tuple[Optional[int], Optional[bytes]]:
        offset = self._meta_offset + slot * META_SLOT_BYTES
        seq, length, crc = _META.unpack_from(
            self._map[offset:offset + _META.size])
        if seq == 0 or length > META_PAYLOAD_MAX:
            return None, None
        payload = self._map[offset + _META.size:
                            offset + _META.size + length]
        if zlib.crc32(payload) != crc:
            return None, None
        return seq, payload

    def read_meta(self) -> Optional[bytes]:
        """The payload of the newest valid meta record, if any."""
        best_seq, best_payload = 0, None
        for slot in (0, 1):
            seq, payload = self._meta_slot(slot)
            if seq is not None and seq > best_seq:
                best_seq, best_payload = seq, payload
        return best_payload

    def write_meta(self, payload: bytes) -> None:
        """Persist a recovery record (ping-pong slots + CRC).

        Alternating slots mean a crash mid-write tears at most the
        record being written; ``read_meta`` falls back to the intact
        previous one.  Under a syncing policy, data written since the
        last flush reaches the medium first (a record must never land
        before the data it points at), then only the written slot's
        pages are flushed, never the whole mapping.
        """
        check_meta_payload(payload)
        if self._sync_enabled and self._dirty_hi > self._dirty_lo:
            self.msync()
        if self._meta_seq is None:
            self._meta_seq = max((self._meta_slot(slot)[0] or 0)
                                 for slot in (0, 1))
        self._meta_seq += 1
        slot = self._meta_seq % 2
        offset = self._meta_offset + slot * META_SLOT_BYTES
        record = _META.pack(self._meta_seq, len(payload),
                            zlib.crc32(payload)) + payload
        self._map[offset:offset + len(record)] = record
        if self._sync_enabled:
            self._map.flush(offset, _page_round(len(record)))

    # ------------------------------------------------------------------
    # lifecycle

    def close(self) -> None:
        """Flush and unmap; the image stays on disk for reattach."""
        if self._fd < 0:
            return
        self._map.flush()
        self._map.close()
        os.close(self._fd)
        self._fd = -1

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    def __contains__(self, addr: int) -> bool:
        try:
            return self._bit(self._index(addr))
        except ValueError:
            return False

    def __len__(self) -> int:
        return self._written

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MmapStore {self.path} {self.capacity_blocks}x"
                f"{self.block_bytes}B written={self._written}>")
