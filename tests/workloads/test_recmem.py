"""Unit tests for the recording heap."""

import pytest

from repro.cpu.trace import OpKind
from repro.errors import WorkloadError
from repro.workloads.kvstore.recmem import RecordingMemory


def test_data_round_trip():
    memory = RecordingMemory(1024)
    memory.write(100, b"hello")
    assert memory.read(100, 5) == b"hello"


def test_u64_helpers():
    memory = RecordingMemory(1024)
    memory.write_u64(8, 0xDEADBEEF)
    assert memory.read_u64(8) == 0xDEADBEEF


def test_accesses_recorded_in_order():
    memory = RecordingMemory(1024, work_per_access=3)
    memory.write(0, b"ab")
    memory.read(0, 2)
    ops = memory.drain_ops()
    kinds = [op.kind for op in ops]
    assert kinds == [OpKind.WORK, OpKind.WRITE, OpKind.WORK, OpKind.READ]
    assert ops[1].addr == 0 and ops[1].size == 2


def test_drain_clears_pending():
    memory = RecordingMemory(1024, work_per_access=0)
    memory.write(0, b"x")
    assert memory.pending_count() == 1
    assert len(memory.drain_ops()) == 1
    assert memory.drain_ops() == []


def test_out_of_range_rejected():
    memory = RecordingMemory(64)
    with pytest.raises(WorkloadError):
        memory.read(60, 8)
    with pytest.raises(WorkloadError):
        memory.write(-1, b"x")


def test_counters():
    memory = RecordingMemory(1024)
    memory.write(0, b"x")
    memory.read(0, 1)
    memory.read(0, 1)
    assert memory.writes == 1
    assert memory.reads == 2


def test_negative_length_read_rejected():
    memory = RecordingMemory(1024)
    with pytest.raises(WorkloadError):
        memory.read(8, -1)


def test_u64_read_records_one_load():
    memory = RecordingMemory(1024, work_per_access=2)
    memory.write_u64(16, 7)
    memory.drain_ops()
    assert memory.read_u64(16) == 7
    assert [tuple(op) for op in memory.drain_ops()] == [
        (OpKind.WORK, 0, 2), (OpKind.READ, 16, 8)]
