"""Unit tests for the functional backing stores."""

import pytest

from repro.mem.datastore import FunctionalStore, NullStore


def test_read_unwritten_is_zeros():
    store = FunctionalStore(64)
    assert store.read(0) == bytes(64)


def test_write_then_read():
    store = FunctionalStore(64)
    payload = b"x" * 64
    store.write(128, payload)
    assert store.read(128) == payload
    assert 128 in store
    assert len(store) == 1


def test_none_payload_ignored():
    store = FunctionalStore(64)
    store.write(0, b"y" * 64)
    store.write(0, None)
    assert store.read(0) == b"y" * 64


def test_wrong_size_rejected():
    store = FunctionalStore(64)
    with pytest.raises(ValueError):
        store.write(0, b"short")


def test_copy_block():
    store = FunctionalStore(64)
    store.write(0, b"z" * 64)
    store.copy_block(0, 64)
    assert store.read(64) == b"z" * 64


def test_erase():
    store = FunctionalStore(64)
    store.write(0, b"a" * 64)
    store.erase()
    assert store.read(0) == bytes(64)
    assert len(store) == 0


def test_copy_block_of_unwritten_source_is_zeros():
    store = FunctionalStore(64)
    store.write(64, b"b" * 64)
    store.copy_block(0, 64)          # unwritten source overwrites dst
    assert store.read(64) == bytes(64)


def test_contains_and_len():
    store = FunctionalStore(64)
    assert 0 not in store and len(store) == 0
    store.write(0, b"a" * 64)
    store.write(64, b"b" * 64)
    store.write(64, b"c" * 64)       # overwrite: still one entry
    assert 0 in store and 64 in store and 128 not in store
    assert len(store) == 2


def test_zero_block_is_cached():
    """Read misses share one immutable zero block per store — no fresh
    ``bytes(block_bytes)`` allocation per miss."""
    store = FunctionalStore(64)
    assert store.read(0) is store.read(4096)
    null = NullStore(64)
    assert null.read(0) is null.read(4096)


def test_null_store_is_inert():
    store = NullStore(64)
    store.write(0, b"a" * 64)
    assert store.read(0) == bytes(64)
    assert 0 not in store
    assert len(store) == 0
    store.copy_block(0, 64)
    store.erase()
    store.msync()


# --- bulk run protocol ---------------------------------------------------


def test_write_run_contiguous_buffer():
    store = FunctionalStore(8)
    store.write_run(16, 3, b"A" * 8 + b"B" * 8 + b"C" * 8)
    assert store.read(16) == b"A" * 8
    assert store.read(24) == b"B" * 8
    assert store.read(32) == b"C" * 8


def test_read_run_fills_unwritten_with_zeros():
    store = FunctionalStore(8)
    store.write(8, b"y" * 8)
    assert store.read_run(0, 3) == bytes(8) + b"y" * 8 + bytes(8)


def test_write_run_rejects_wrong_sizes():
    store = FunctionalStore(8)
    with pytest.raises(ValueError):
        store.write_run(0, 2, b"tooshort")
    with pytest.raises(ValueError):
        store.write_run(0, 2, [b"x" * 8])            # wrong chunk count
    with pytest.raises(ValueError):
        store.write_run(0, 2, [b"x" * 8, b"short"])  # wrong chunk size


def test_null_store_bulk_ops_inert():
    store = NullStore(8)
    store.write_run(0, 2, b"a" * 16)
    assert store.read_run(0, 2) == bytes(16)
    assert len(store) == 0
