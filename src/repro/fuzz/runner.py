"""Execute one crash plan: drive, crash, recover, check the oracle.

The runner builds a directly-driven system (no CPU model — the same
shape the property tests use), installs a probe observer that counts
protocol events, and crashes the controller a fixed jitter after the
plan's N-th matching event.  After the crash it recovers every system
the same way: :func:`~repro.core.recovery.recover_image` over the NVM
store alone, i.e. the recovery record the controller wrote at its own
durability point plus the data it points at.  Nothing is read from
controller heap state.

The committed-prefix oracle (:func:`check_committed_prefix`, shared
with ``repro crashproc``) then demands an exact match: recovery lands
on the newest committed epoch and the image equals that epoch's
golden.  Redo journaling may instead land on the pending epoch whose
log record is durable.  Landing on an older committed epoch fails even
when its image is intact: that is a lost commit.

Everything downstream of the plan string is deterministic:
``run_plan(parse_plan(s)).to_dict()`` is a pure function of ``s`` and
the code version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Type

from ..config import SystemConfig, small_test_config
from ..core import probes
from ..core.epoch import Phase
from ..core.recovery import recover_image
from ..errors import CrashedError, ReproError, WorkloadError
from ..harness.systems import build_controller
from ..mem.controller import DeviceKind, MemoryController
from ..sim.engine import Engine
from ..sim.request import Origin
from ..stats.collector import StatsCollector
from .plan import CrashPlan
from .workloads import Schedule, build_schedule, observed_blocks

#: Epoch timer parked far in the future: the workload drives boundaries.
_MANUAL_EPOCHS = 10 ** 12


def fuzz_config() -> SystemConfig:
    """The fixed configuration every fuzz run uses."""
    return small_test_config(epoch_cycles=_MANUAL_EPOCHS)


@dataclass
class FuzzResult:
    """Outcome of one plan (JSON-stable: no wall-clock anywhere)."""

    plan: str
    outcome: str                      # "pass" | "fail" | "unreached"
    crash_cycle: Optional[int] = None
    recovered_epoch: Optional[int] = None
    committed_epochs: int = 0         # epochs committed before the crash
    site_counts: Dict[str, int] = field(default_factory=dict)
    detail: str = ""                  # failure description ("" if none)

    @property
    def failed(self) -> bool:
        return self.outcome == "fail"

    def to_dict(self) -> Dict[str, object]:
        return {
            "plan": self.plan,
            "outcome": self.outcome,
            "crash_cycle": self.crash_cycle,
            "recovered_epoch": self.recovered_epoch,
            "committed_epochs": self.committed_epochs,
            "site_counts": dict(sorted(self.site_counts.items())),
            "detail": self.detail,
        }


class CrashInjector:
    """Counts probe events; arms the crash at the N-th matching one.

    The crash itself is always *scheduled* (never synchronous inside the
    probe callback) so the protocol method that fired the probe unwinds
    first — matching the hardware model, where power loss interrupts
    between device events, not inside a controller state update.
    """

    def __init__(self, engine: Engine, controller: Any,
                 plan: Optional[CrashPlan]) -> None:
        self.engine = engine
        self.controller = controller
        self.plan = plan
        self.counts: Dict[str, int] = {}
        self.matched = 0
        self.armed = False
        self.crash_cycle: Optional[int] = None

    def observe(self, kind: str, detail: str) -> None:
        key = f"{kind}.{detail}" if detail else kind
        self.counts[key] = self.counts.get(key, 0) + 1
        plan = self.plan
        if plan is None or self.armed:
            return
        if kind != plan.site:
            return
        if plan.detail and detail != plan.detail:
            return
        self.matched += 1
        if self.matched == plan.occurrence:
            self.armed = True
            self.engine.schedule(plan.jitter, self._do_crash)

    def _do_crash(self) -> None:
        if self.controller.crashed:
            return
        self.crash_cycle = self.engine.now
        self.controller.crash()


def _advance(engine: Engine, controller: Any, cond: Callable[[], bool],
             limit: int = 500_000_000) -> None:
    """Run until ``cond()``, the controller crashes, or events run dry."""
    start = engine.now
    while not cond() and not controller.crashed:
        if engine.pending_events == 0:
            return
        engine.run(until=engine.now + 10_000)
        if engine.now - start > limit:
            raise WorkloadError("fuzz drive made no progress "
                                f"(stuck {limit} cycles)")


def _settle_writes(engine: Engine, controller: Any,
                   stats: StatsCollector, chunk: int = 20_000,
                   rounds: int = 200) -> None:
    """Advance until issued demand traffic is fully serviced.

    Direct driving has no stalled CPU or cache flush at the boundary, so
    without this a write still sitting in a device queue (e.g. behind a
    copy-on-write storm) would be silently excluded from the checkpoint
    the driver is about to force — a driver race, not a protocol bug.
    Quiescence is judged purely on simulated state, so it is exactly as
    deterministic as the rest of the run.
    """
    previous: Optional[Tuple[int, int, int, int, int]] = None
    for _ in range(rounds):
        if controller.crashed:
            return
        current = (stats.dram_writes.total(), stats.nvm_writes.total(),
                   stats.dram_reads.total(), stats.nvm_reads.total(),
                   engine.pending_events)
        if current == previous:
            return
        previous = current
        engine.run(until=engine.now + chunk)


def _ready_for_boundary(controller: Any) -> Callable[[], bool]:
    """No boundary flush or checkpoint is in flight."""
    return lambda: controller.epochs.phase is Phase.EXECUTING


def _committed_past(controller: Any, epoch: int) -> Callable[[], bool]:
    return lambda: controller.committed_epoch >= epoch


def golden_images(schedule: Schedule) -> Dict[int, Dict[int, bytes]]:
    """The software-visible image at every epoch boundary of a
    schedule (epoch -1: the pristine, all-zero image)."""
    goldens: Dict[int, Dict[int, bytes]] = {-1: {}}
    image: Dict[int, bytes] = {}
    for epoch, writes in enumerate(schedule):
        image.update(writes)
        goldens[epoch] = dict(image)
    return goldens


def check_committed_prefix(epoch: int, image: Dict[int, bytes],
                           goldens: Dict[int, Dict[int, bytes]],
                           accepted: Sequence[int],
                           block_bytes: int) -> str:
    """The committed-prefix oracle: "" on a pass, else what failed.

    ``accepted`` lists the epochs recovery may land on: the newest
    committed one, plus what the caller also allows (journaling's
    pending epoch, a commit racing a ``SIGKILL``).  The recovered
    ``image`` must then equal that epoch's golden exactly.
    """
    if epoch not in accepted or epoch not in goldens:
        return (f"recovered to epoch {epoch}, expected "
                f"{' or '.join(str(e) for e in accepted)}")
    golden = goldens[epoch]
    empty = bytes(block_bytes)
    for block, data in sorted(image.items()):
        if data != golden.get(block, empty):
            return f"block {block} mismatch after recovery to epoch {epoch}"
    return ""


def drive_plan(plan: CrashPlan, schedule: Schedule, config: SystemConfig,
               injector_type: Type[CrashInjector] = CrashInjector,
               ) -> Tuple[Any, CrashInjector, int, Optional[int]]:
    """Drive ``schedule`` into a fresh ``plan.system`` controller, one
    forced epoch boundary per schedule epoch, with the plan's crash
    armed by an ``injector_type`` probe observer.

    Returns the controller, the injector, the newest epoch committed
    before the crash (-1: none) and the last epoch whose boundary was
    forced (None: none).
    """
    engine = Engine()
    stats = StatsCollector(config.block_bytes)
    memctrl = MemoryController(engine, config, stats)
    controller = build_controller(plan.system, engine, config, memctrl,
                                  stats)
    controller.start()
    injector = injector_type(engine, controller, plan)

    committed = -1                    # newest epoch committed pre-crash
    forced: Optional[int] = None      # epoch whose boundary was forced

    previous = probes.set_observer(injector.observe)
    try:
        for epoch, writes in enumerate(schedule):
            for block, data in writes:
                if controller.crashed:
                    break
                try:
                    controller.write_block(block * config.block_bytes,
                                           Origin.CPU, data=data)
                except CrashedError:
                    break
                engine.run(until=engine.now + 1_000)
            if controller.crashed:
                break
            _settle_writes(engine, controller, stats)
            _advance(engine, controller, _ready_for_boundary(controller))
            if controller.crashed:
                break
            forced = epoch
            try:
                controller.force_epoch_end("fuzz")
            except CrashedError:
                break
            _advance(engine, controller, _committed_past(controller, epoch))
            # The commit may have landed in the same advance step as the
            # crash: it counts whenever it happened, crash or not.
            if _committed_past(controller, epoch)():
                committed = epoch
            if controller.crashed:
                break
        # Let any jitter-delayed crash (and post-crash cancellations)
        # play out before deciding the site was never reached.
        engine.run(until=engine.now + 1_000_000)
    finally:
        probes.set_observer(previous)
    return controller, injector, committed, forced


def run_plan(plan: CrashPlan,
             config: Optional[SystemConfig] = None) -> FuzzResult:
    """Execute one crash plan end to end (pure function of the plan)."""
    config = config if config is not None else fuzz_config()
    schedule = build_schedule(plan.workload, plan.seed, plan.epochs,
                              plan.blocks, config)
    controller, injector, committed, forced = drive_plan(plan, schedule,
                                                         config)
    result = FuzzResult(plan=str(plan), outcome="pass",
                        crash_cycle=injector.crash_cycle,
                        committed_epochs=committed + 1,
                        site_counts=injector.counts)
    if not controller.crashed:
        result.outcome = "unreached"
        result.detail = (f"site {plan.site}"
                         f"{'.' + plan.detail if plan.detail else ''} "
                         f"matched {injector.matched} time(s); "
                         f"occurrence {plan.occurrence} never fired")
        return result

    try:
        recovered = recover_image(
            config, controller.memctrl.functional_store(DeviceKind.NVM))
        image = {block: recovered.visible_block(block)
                 for block in observed_blocks(schedule)}
    except ReproError as error:
        result.outcome = "fail"
        result.detail = f"recovery raised {type(error).__name__}: {error}"
        return result

    result.recovered_epoch = recovered.epoch
    # Redo journaling commits *early*: once the log stage is durable the
    # epoch is recoverable by replay, before the commit record lands.
    accepted = [committed]
    if plan.system == "journal" and forced is not None and forced != committed:
        accepted.append(forced)
    result.detail = check_committed_prefix(
        recovered.epoch, image, golden_images(schedule), accepted,
        config.block_bytes)
    if result.detail:
        result.outcome = "fail"
    return result


def census(system: str, workload: str, seed: int, epochs: int,
           blocks: int, config: Optional[SystemConfig] = None,
           ) -> Dict[str, int]:
    """Site-occurrence counts for one system×workload, without a crash.

    Runs the exact schedule a plan with these shape parameters would
    drive, counting every probe event: the concrete plan space the
    campaign enumerates over.
    """
    probe_plan = CrashPlan(system=system, workload=workload, seed=seed,
                           epochs=epochs, blocks=blocks,
                           site="ckpt-start", occurrence=10 ** 9)
    result = run_plan(probe_plan, config)
    return result.site_counts
