"""Crash recovery (§4.5 of the paper): the one recovery path.

Every system writes a *recovery record* into its NVM store's meta slot
at the point its protocol makes that record durable, and recovery is a
pure function of the NVM store: decode the newest record, then resolve
each block through the §4.5 lookup.  This module is the only place
that knows the record format or the lookup; controllers hand it a
:class:`MetaSnapshot`, and the stores only move bytes.

==================  ==============================  ======================
system              record                          written when
==================  ==============================  ======================
ThyNVM (all three   BTT regions, PTT (region,       commit, aux-commit
variants)           slot) pairs, CPU-state version
shadow paging       committed page -> region map    commit, aux-commit
journaling          block -> log slot               log stage durable
                    no log                          commit, aux-commit
==================  ==============================  ======================

The lookup tries a durable redo-log entry (journaling), then the
committed page entry, then the committed block entry, then the Home
Region.  Region B *is* the Home Region, so shadow paging's page map is
just a page table to it.  A store holding no record recovers to epoch
-1, the pristine Home image.

§4.5 recovery has three steps: (1) reload the checkpointed BTT/PTT,
(2) restore page-writeback pages into the DRAM Working Data Region,
(3) reload the CPU state.  :func:`recover_image` performs (1) and (3)
against a bare store; it is what the fuzz runner and the
cross-process recovery run.  :func:`recover` adds (2) and the latency
estimate for a crashed ThyNVM machine.

Writing the record is functional only: the checkpoint plan's
backup-region writes already model the *timing* of persisting it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Protocol, Sequence, Tuple

from ..config import SystemConfig
from ..cpu.state import CpuState
from ..errors import RecoveryError
from ..mem.address import AddressMap
from ..mem.controller import DeviceKind, MemoryController
from .regions import HardwareLayout

# Record layout: this header, then fixed-width little-endian columns in
# order -- block ids (I) and regions (B); page ids (I), regions (B) and
# DRAM slots (I); log block ids (I) and log slots (I).  Four-byte ids
# cover 256 GiB of 64 B blocks and keep a full Table 2 journal log
# (6,144 entries) inside one 64 KiB meta slot.
# magic, epoch, has_cpu, cpu_bytes, cpu_version, #blocks, #pages, #log
_HEADER = struct.Struct("<4sq?IqIII")
_MAGIC = b"TNR1"


class RecordStore(Protocol):
    """The slice of the datastore protocol recovery needs."""

    def read(self, addr: int) -> bytes:
        """One block of data (zeros if never written)."""
        ...

    def read_meta(self) -> Optional[bytes]:
        """The newest recovery record, or ``None``."""
        ...

    def write_meta(self, payload: bytes) -> None:
        """Replace the recovery record."""
        ...


@dataclass
class MetaSnapshot:
    """Durable metadata as of one recovery point."""

    epoch: int                                   # epoch this record captured
    block_regions: Dict[int, int] = field(default_factory=dict)
    # page -> (stable checkpoint region, DRAM working slot)
    page_regions: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    cpu_state: Optional[CpuState] = None
    # block -> journal log slot: a durable redo log not yet applied home
    log_slots: Dict[int, int] = field(default_factory=dict)


def _pack(code: str, values: Collection[int]) -> bytes:
    return struct.pack(f"<{len(values)}{code}", *values)


def encode_record(meta: MetaSnapshot) -> bytes:
    """The fixed-width byte form of ``meta`` (see :func:`decode_record`)."""
    cpu = meta.cpu_state
    blocks, pages, log = meta.block_regions, meta.page_regions, meta.log_slots
    return b"".join((
        _HEADER.pack(_MAGIC, meta.epoch, cpu is not None,
                     cpu.size_bytes if cpu is not None else 0,
                     cpu.version if cpu is not None else 0,
                     len(blocks), len(pages), len(log)),
        _pack("I", blocks), bytes(blocks.values()),
        _pack("I", pages), bytes(region for region, _slot in pages.values()),
        _pack("I", [slot for _region, slot in pages.values()]),
        _pack("I", log), _pack("I", log.values()),
    ))


def decode_record(payload: Optional[bytes]) -> MetaSnapshot:
    """Inverse of :func:`encode_record`; ``None`` (no record) decodes to
    epoch -1 with empty tables."""
    if payload is None:
        return MetaSnapshot(epoch=-1)
    try:
        (magic, epoch, has_cpu, cpu_bytes, cpu_version, num_blocks,
         num_pages, num_log) = _HEADER.unpack_from(payload)
        if magic != _MAGIC:
            raise RecoveryError(f"not a recovery record (magic {magic!r})")
        (blocks, block_regions, pages, page_regions, page_slots, log,
         log_slots) = _unpack_columns(
            payload, _HEADER.size,
            (("I", num_blocks), ("B", num_blocks), ("I", num_pages),
             ("B", num_pages), ("I", num_pages), ("I", num_log),
             ("I", num_log)))
    except struct.error as error:
        raise RecoveryError(f"truncated recovery record: {error}") from error
    return MetaSnapshot(
        epoch=epoch,
        block_regions=dict(zip(blocks, block_regions)),
        page_regions={page: (region, slot) for page, region, slot
                      in zip(pages, page_regions, page_slots)},
        cpu_state=CpuState(cpu_bytes, cpu_version) if has_cpu else None,
        log_slots=dict(zip(log, log_slots)))


def _unpack_columns(payload: bytes, offset: int,
                    columns: Sequence[Tuple[str, int]],
                    ) -> List[Tuple[int, ...]]:
    values: List[Tuple[int, ...]] = []
    for code, count in columns:
        column = struct.Struct(f"<{count}{code}")
        values.append(column.unpack_from(payload, offset))
        offset += column.size
    if offset != len(payload):
        raise RecoveryError(
            f"recovery record has {len(payload) - offset} trailing bytes")
    return values


def write_record(nvm: RecordStore, meta: MetaSnapshot) -> None:
    """Make ``meta`` the store's recovery record."""
    nvm.write_meta(encode_record(meta))


def read_record(nvm: RecordStore) -> MetaSnapshot:
    """The store's newest recovery record (epoch -1 if it has none)."""
    return decode_record(nvm.read_meta())


def block_address(meta: MetaSnapshot, layout: HardwareLayout,
                  addresses: AddressMap, block: int) -> int:
    """The §4.5 lookup: the NVM address holding ``block``'s contents
    under ``meta`` -- durable log entry, else committed page, else
    committed block, else the Home Region."""
    slot = meta.log_slots.get(block)
    if slot is not None:
        return layout.log_slot_addr(slot)
    page = addresses.page_of_block(block)
    page_info = meta.page_regions.get(page)
    if page_info is not None:
        offset = block - addresses.blocks_in_page(page).start
        return (layout.region_page_addr(page_info[0], page)
                + offset * layout.block_bytes)
    region = meta.block_regions.get(block)
    if region is not None:
        return layout.region_block_addr(region, block)
    return layout.home_block_addr(block)


@dataclass
class RecoveredState:
    """The outcome of recovery: which epoch we rolled back to, plus a
    functional view of the recovered physical address space.

    ``recovery_cycles`` estimates the §4.5 recovery latency (set by
    :func:`recover`): reloading the checkpointed BTT/PTT, restoring
    page-writeback pages into the Working Data Region, and reloading
    the CPU state.  One of NVM's selling points versus log-replay
    recovery (§2.2) is that this is proportional to metadata + hot
    pages, not to the log volume.
    """

    meta: MetaSnapshot
    layout: HardwareLayout
    nvm: RecordStore
    addresses: AddressMap
    recovery_cycles: int = 0

    @property
    def epoch(self) -> int:
        return self.meta.epoch

    @property
    def cpu_state(self) -> Optional[CpuState]:
        return self.meta.cpu_state

    def visible_block(self, block: int) -> bytes:
        """Bytes of one physical block in the recovered state."""
        return self.nvm.read(block_address(self.meta, self.layout,
                                           self.addresses, block))

    def snapshot_physical(self, num_blocks: int) -> Dict[int, bytes]:
        """Full functional image of the first ``num_blocks`` blocks."""
        return {b: self.visible_block(b) for b in range(num_blocks)}


def recover_image(config: SystemConfig, nvm: RecordStore) -> RecoveredState:
    """Recovery as a pure function of the NVM store alone: the newest
    durable record, resolved through the §4.5 lookup.  Works for all
    five systems, in-process or in a fresh process attached to an
    image file."""
    return RecoveredState(meta=read_record(nvm),
                          layout=HardwareLayout(config), nvm=nvm,
                          addresses=AddressMap(config))


def recover(config: SystemConfig, memctrl: MemoryController) -> RecoveredState:
    """Run §4.5 recovery on a crashed ThyNVM machine.

    Powers the memory controller on, recovers from the NVM store's
    record, restores PTT-managed pages into the DRAM Working Data
    Region (functionally; the caller may additionally account the copy
    traffic) and estimates the recovery latency.
    """
    memctrl.power_on()
    nvm = memctrl.functional_store(DeviceKind.NVM)
    dram = memctrl.functional_store(DeviceKind.DRAM)
    state = recover_image(config, nvm)
    meta, layout = state.meta, state.layout
    blocks_per_page = config.blocks_per_page
    for page, (region, slot) in meta.page_regions.items():
        dram.write_run(layout.page_slot_addr(slot), blocks_per_page,
                       nvm.read_run(layout.region_page_addr(region, page),
                                    blocks_per_page))

    # Latency estimate: sequential NVM reads stream across the banks.
    per_read = (config.nvm.row_miss_clean + config.nvm.burst) // config.num_banks
    per_dram_write = (config.dram.row_hit + config.dram.burst) // config.num_banks
    meta_bytes = (len(meta.block_regions) * config.btt_entry_bytes
                  + len(meta.page_regions) * config.ptt_entry_bytes
                  + config.cpu_state_bytes)
    meta_blocks = -(-meta_bytes // config.block_bytes)
    restore_blocks = len(meta.page_regions) * blocks_per_page
    state.recovery_cycles = (meta_blocks * per_read
                             + restore_blocks * (per_read + per_dram_write))
    return state
