"""The memory controller's bulk-cursor guard trips on a seeded bug.

The seed collapses the queue's service frontier: ``request.serviced
+= 1`` becomes ``request.serviced = request.completed`` in
``BoundedQueue._service_head_block``.  That breaks the fence accounting
invariant ``covered = queued + (serviced - completed)``, and the
completion path's cursor check (``completed <= serviced``) must raise
under any bulk-run workload the fuzzer drives.
"""

import importlib.util
from pathlib import Path

import pytest

import repro
from repro.errors import SimulationError
from repro.fuzz.runner import census
from repro.sim.queueing import BoundedQueue

CLEAN = "request.serviced += 1"
BUGGY = "request.serviced = request.completed"


def seeded_queueing(tmp_path: Path) -> Path:
    """A standalone copy of sim/queueing.py carrying the bug."""
    source = (Path(repro.__file__).parent / "sim" / "queueing.py").read_text()
    assert CLEAN in source, "seed anchor moved; update this test"
    source = source.replace(CLEAN, BUGGY)
    # Absolute imports so the copy loads outside the package.
    source = source.replace("from ..errors import", "from repro.errors import")
    source = source.replace("from .request import",
                            "from repro.sim.request import")
    target = tmp_path / "queueing.py"
    target.write_text(source)
    return target


def test_runtime_guard_catches_the_seed(tmp_path, monkeypatch):
    target = seeded_queueing(tmp_path)
    spec = importlib.util.spec_from_file_location("seeded_queueing", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(BoundedQueue, "_service_head_block",
                        module.BoundedQueue._service_head_block)
    with pytest.raises(SimulationError, match="service order violated"):
        census("shadow", "sparse", seed=1, epochs=2, blocks=8)
