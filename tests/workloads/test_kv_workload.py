"""Unit tests for the KV-store trace generator."""

import pytest

from repro.cpu.trace import OpKind
from repro.errors import WorkloadError
from repro.workloads.kvstore.workload import KVWorkload, kv_trace, value_maker


def test_trace_has_one_txn_per_op():
    config = KVWorkload(num_ops=50, preload=20, request_size=32)
    ops = list(kv_trace(config))
    assert sum(1 for op in ops if op.kind is OpKind.TXN) == 50


def test_preload_not_traced():
    small = KVWorkload(num_ops=10, preload=0, request_size=32, seed=2)
    big = KVWorkload(num_ops=10, preload=500, request_size=32, seed=2)
    ops_small = list(kv_trace(small))
    ops_big = list(kv_trace(big))
    # The preload warms the store but contributes no trace ops beyond
    # making chains longer; trace length stays the same order.
    assert len(ops_big) < len(ops_small) * 30


def test_addresses_within_heap():
    config = KVWorkload(num_ops=100, preload=50, request_size=128)
    for op in kv_trace(config):
        if op.kind in (OpKind.READ, OpKind.WRITE):
            assert 0 <= op.addr < config.heap_bytes


def test_rbtree_structure_supported():
    config = KVWorkload(structure="rbtree", num_ops=30, preload=20,
                        request_size=64)
    ops = list(kv_trace(config))
    assert sum(1 for op in ops if op.kind is OpKind.TXN) == 30


def test_request_size_drives_traffic():
    small = KVWorkload(num_ops=40, preload=20, request_size=16, seed=3)
    large = KVWorkload(num_ops=40, preload=20, request_size=4096, seed=3)
    bytes_small = sum(op.size for op in kv_trace(small)
                      if op.kind is OpKind.WRITE)
    bytes_large = sum(op.size for op in kv_trace(large)
                      if op.kind is OpKind.WRITE)
    assert bytes_large > 10 * bytes_small


def test_invalid_config_rejected():
    with pytest.raises(WorkloadError):
        KVWorkload(structure="skiplist")
    with pytest.raises(WorkloadError):
        KVWorkload(request_size=0)
    with pytest.raises(WorkloadError):
        KVWorkload(search_frac=0.9, insert_frac=0.5)


def test_deterministic_per_seed():
    a = list(kv_trace(KVWorkload(num_ops=30, preload=10, seed=9)))
    b = list(kv_trace(KVWorkload(num_ops=30, preload=10, seed=9)))
    assert a == b


@pytest.mark.parametrize("size", [1, 16, 255, 256, 257, 1024, 4096])
def test_values_are_the_counting_byte_pattern(size):
    """Each value is ``key * 31 + i`` (mod 256) for i < size, whatever
    the key, sliced from one precomputed cycle."""
    value_for = value_maker(size)
    for key in (0, 1, 8, 255, 256, 4095, 16383):
        assert value_for(key) == bytes((key * 31 + i) & 0xFF
                                       for i in range(size))
