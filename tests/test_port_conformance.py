"""Port-contract conformance: every memory system honours MemoryPort.

The cache hierarchy and CPU only ever see the MemoryPort protocol, so
each consistency system must implement the same observable contract:
read callbacks fire with data, write on_accept fires exactly once,
write completion callbacks fire after acceptance, and data written is
data read back (read-your-writes through any translation scheme).
"""

import pytest

from repro.config import small_test_config
from repro.harness.systems import SYSTEM_NAMES, build_system
from repro.sim.request import Origin

from .conftest import MANUAL_EPOCHS, pad, run_until


@pytest.fixture(params=SYSTEM_NAMES)
def system(request):
    config = small_test_config(epoch_cycles=MANUAL_EPOCHS)
    built = build_system(request.param, config)
    built.memsys.start()
    return built


def test_read_your_writes(system):
    memsys = system.memsys
    events = []
    memsys.write_block(5 * 64, Origin.CPU, data=pad(b"rmw"),
                       callback=lambda r: events.append("w-done"),
                       on_accept=lambda: events.append("w-accept"))
    memsys.read_block(5 * 64, Origin.CPU,
                      lambda r: events.append(("r", r.data)))
    run_until(system.engine,
              lambda: any(isinstance(e, tuple) for e in events))
    read_events = [e for e in events if isinstance(e, tuple)]
    assert read_events[0][1] == pad(b"rmw")
    assert events.count("w-accept") == 1
    assert "w-done" in events
    assert events.index("w-accept") < events.index("w-done")


def test_distinct_blocks_do_not_alias(system):
    memsys = system.memsys
    for block in range(8):
        memsys.write_block(block * 64, Origin.CPU,
                           data=pad(bytes([block + 1])))
    results = {}

    def reader(block):
        memsys.read_block(block * 64, Origin.CPU,
                          lambda r, b=block: results.update({b: r.data}))

    for block in range(8):
        reader(block)
    run_until(system.engine, lambda: len(results) == 8)
    for block in range(8):
        assert results[block] == pad(bytes([block + 1])), block


def test_unwritten_blocks_read_zero(system):
    memsys = system.memsys
    got = {}
    memsys.read_block(99 * 64, Origin.CPU,
                      lambda r: got.update(d=r.data))
    run_until(system.engine, lambda: "d" in got)
    assert got["d"] == bytes(64)


def test_write_without_callbacks_is_fine(system):
    memsys = system.memsys
    # Positional: MemoryPort.write_block(addr, origin, data=None, ...).
    memsys.write_block(0, Origin.CPU, pad(b"fire-and-forget"))
    got = {}
    memsys.read_block(0, Origin.CPU, lambda r: got.update(d=r.data))
    run_until(system.engine, lambda: "d" in got)
    assert got["d"] == pad(b"fire-and-forget")
