"""Unit tests for the system factory, runner and table helpers."""

import pytest

from repro.config import small_test_config
from repro.cpu.trace import TraceBuilder
from repro.errors import ConfigError, SimulationError
from repro.harness.runner import execute, run_workload
from repro.harness.systems import SYSTEM_NAMES, build_system
from repro.harness.tables import format_table, geometric_mean


def small_trace():
    builder = TraceBuilder()
    for i in range(50):
        builder.work(4).write(i * 64 % (64 * 1024), 64).txn()
    return builder.build()


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_every_system_runs_a_trace(name):
    result = run_workload(name, small_trace(), small_test_config())
    assert result.finished
    assert result.stats.instructions > 0
    assert result.cycles > 0
    assert result.stats.transactions == 50


def test_unknown_system_rejected():
    with pytest.raises(ConfigError):
        build_system("nonsense", small_test_config())


def test_execute_with_no_traces_is_a_valid_run():
    """A zero-work run must drain and finish, not report a wedged engine."""
    system = build_system("thynvm", small_test_config())
    result = execute(system, iter([]), traces=[])
    assert result.finished
    assert result.stats.instructions == 0


def test_execute_with_all_empty_traces_finishes():
    system = build_system("ideal_dram", small_test_config())
    result = execute(system, iter([]), traces=[iter([])])
    assert result.finished
    assert result.stats.instructions == 0


def test_execute_rejects_more_traces_than_cores():
    system = build_system("ideal_dram", small_test_config())
    with pytest.raises(SimulationError):
        execute(system, iter([]), traces=[small_trace(), small_trace()])


def test_wedged_run_reports_every_core():
    """The wedge diagnostic must name each core's stall state."""
    system = build_system("ideal_dram", small_test_config(num_cores=2))
    system.memsys.drain = lambda on_done: None   # swallow the drain
    with pytest.raises(SimulationError) as excinfo:
        execute(system, iter([]), traces=[small_trace(), small_trace()])
    message = str(excinfo.value)
    assert "core0" in message and "core1" in message


def test_runs_are_deterministic():
    a = run_workload("thynvm", small_trace(), small_test_config())
    b = run_workload("thynvm", small_trace(), small_test_config())
    assert a.cycles == b.cycles
    assert a.stats.nvm_write_blocks == b.stats.nvm_write_blocks


def test_consistency_systems_cost_more_than_ideal():
    config = small_test_config()
    ideal = run_workload("ideal_dram", small_trace(), config)
    thynvm = run_workload("thynvm", small_trace(), config)
    assert thynvm.cycles >= ideal.cycles
    assert thynvm.stats.epochs_completed >= 1


def test_format_table_alignment():
    text = format_table(["name", "value"], [["a", 1.5], ["bbb", 20]],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 5


def test_geometric_mean():
    assert geometric_mean([1, 4]) == pytest.approx(2.0)
    assert geometric_mean([]) == 0.0
    assert geometric_mean([3]) == pytest.approx(3.0)
