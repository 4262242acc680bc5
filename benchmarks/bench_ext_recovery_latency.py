"""Extension bench (§2.2): recovery latency, ThyNVM vs log replay.

The paper motivates checkpointing over logging partly with recovery
speed: "log replay increases the recovery time on system failure,
reducing the fast recovery benefit of using NVM".  This bench crashes
ThyNVM and the journaling baseline at equivalent points and compares
the §4.5 recovery cost (reload tables + restore DRAM pages) with the
journal's committed-log replay cost.  Both read what they replay from
the NVM recovery record alone.
"""

from repro.config import small_test_config
from repro.core.recovery import read_record
from repro.harness.systems import build_system
from repro.mem.controller import DeviceKind
from repro.harness.tables import format_table
from repro.units import cycles_to_ns
from repro.workloads.micro import sliding_trace

OPS = 4000
FOOTPRINT = 128 * 1024


def report() -> dict:
    config = small_test_config(epoch_cycles=60_000)
    results = {}

    thynvm = build_system("thynvm", config)
    thynvm.memsys.start()
    thynvm.core.run_trace(iter(sliding_trace(FOOTPRINT, OPS, seed=2)),
                          lambda: None)
    thynvm.engine.run(until=600_000)
    thynvm.memsys.crash()
    recovered = thynvm.memsys.recover()
    results["thynvm"] = {
        "recovery_cycles": recovered.recovery_cycles,
        "recovered_epoch": recovered.epoch,
    }

    journal = build_system("journal", config)
    journal.memsys.start()
    journal.core.run_trace(iter(sliding_trace(FOOTPRINT, OPS, seed=2)),
                           lambda: None)
    # Crash exactly when a log becomes durable (worst case for replay).
    ctl = journal.memsys
    original = ctl._on_ckpt_stage

    def crash_after_log(stage_index):
        original(stage_index)
        if stage_index == 1 and ctl._log_plan:
            ctl.crash()

    ctl._on_ckpt_stage = crash_after_log
    journal.engine.run(until=2_000_000)
    if not ctl._crashed:
        ctl.crash()
    record = read_record(ctl.memctrl.functional_store(DeviceKind.NVM))
    results["journal"] = {
        "recovery_cycles": ctl.recovery_cycles_estimate(),
        "log_blocks": len(record.log_slots),
    }

    rows = [
        ["ThyNVM (reload tables + pages)",
         results["thynvm"]["recovery_cycles"],
         round(cycles_to_ns(results["thynvm"]["recovery_cycles"]) / 1000, 1)],
        [f"Journal (replay {results['journal']['log_blocks']} log blocks)",
         results["journal"]["recovery_cycles"],
         round(cycles_to_ns(results["journal"]["recovery_cycles"]) / 1000, 1)],
    ]
    print()
    print(format_table(["system", "recovery cycles", "µs"], rows,
                       title="§2.2 extension: post-crash recovery latency"))
    return results


def test_ext_recovery_latency(benchmark):
    results = benchmark.pedantic(report, rounds=1, iterations=1)
    assert results["thynvm"]["recovered_epoch"] >= 0
    if results["journal"]["log_blocks"] > 0:
        # Replaying a committed log costs more than reloading metadata.
        assert (results["journal"]["recovery_cycles"]
                > results["thynvm"]["recovery_cycles"] * 0.5)