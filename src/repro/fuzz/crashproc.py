"""Cross-process crash testing: ``kill -9`` a child mid-checkpoint.

``repro crashproc`` proves the mmap-backed store's durability story end
to end with a *real* process death, instead of the in-process
``controller.crash()`` the fuzz campaign uses:

1. **child** — a subprocess drives the plan's workload against
   file-backed stores (``store_dir`` set) with the fuzz runner's own
   drive loop.  The controllers write their own recovery records
   into the NVM image's meta slot, exactly as in every other run; the
   child records nothing itself.  It prints the committed epoch at
   every ``commit`` probe; at the armed site it prints a marker line
   and ``SIGSTOP``\\ s itself mid-simulation.
2. **kill** — the parent, seeing the marker, delivers ``SIGKILL``.
   Nothing in the child runs again: whatever reached the ``MAP_SHARED``
   file pages is what survives — precisely the process-crash
   persistence model of docs/PERSISTENCE.md.
3. **recover** — a *fresh* process attaches the NVM image file alone
   (no controller, no simulation) and runs the same recovery every
   in-process check runs, :func:`~repro.core.recovery.recover_image`:
   decode the newest record in the meta slot, resolve every block
   through the §4.5 lookup.
4. **oracle** — the parent regenerates the golden images from the
   plan's deterministic schedule and applies the fuzz runner's
   committed-prefix oracle: recovery must land on the newest epoch
   the child reported committed (journaling: or the next one, whose
   log may be durable).  The report is written at the commit probe
   itself, before the freeze, so no commit can race the kill.
"""

from __future__ import annotations

import dataclasses
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..config import SystemConfig
from ..core.recovery import recover_image
from ..core.regions import HardwareLayout
from ..errors import WorkloadError
from ..mem.controller import DeviceKind
from ..mem.mmapstore import MmapStore
from .plan import FUZZ_SYSTEMS, CrashPlan
from .runner import (CrashInjector, check_committed_prefix, drive_plan,
                     fuzz_config, golden_images)
from .workloads import build_schedule, observed_blocks

#: Child stdout protocol: one marker per line, flushed before SIGSTOP.
READY_MARKER = "CRASHPROC-READY"
UNREACHED_MARKER = "CRASHPROC-UNREACHED"
_COMMIT_PREFIX = "CRASHPROC-COMMIT "

#: Image file the recovery process attaches (MemoryController names the
#: per-device files ``<kind>.img`` inside ``config.store_dir``).
NVM_IMAGE = f"{DeviceKind.NVM.value}.img"

#: Hand-picked, always-reachable sites for the sweep (kind#occurrence).
#: ``commit-write`` is mid-checkpoint — after the data stages, before
#: the commit record is durable — the acceptance crash point.
SWEEP_SITES: Tuple[str, ...] = ("ckpt-start#1", "fence#1",
                                "commit-write#2", "commit#1")
QUICK_SWEEP_SITES: Tuple[str, ...] = ("commit-write#1",)


def crashproc_config(store_dir: str) -> SystemConfig:
    """The fuzz configuration rebased onto file-backed stores."""
    return dataclasses.replace(fuzz_config(), store_dir=store_dir,
                               msync_policy="commit")


def sweep_plans(quick: bool = False) -> List[CrashPlan]:
    """Every system crossed with the sweep's crash sites."""
    sites = QUICK_SWEEP_SITES if quick else SWEEP_SITES
    plans: List[CrashPlan] = []
    for system in FUZZ_SYSTEMS:
        for site in sites:
            kind, occurrence = site.split("#")
            plans.append(CrashPlan(system=system, workload="sparse",
                                   seed=1, epochs=3, blocks=16,
                                   site=kind, occurrence=int(occurrence)))
    return plans


# --- child process -------------------------------------------------------


class _FreezeInjector(CrashInjector):
    """The fuzz runner's injector, but it reports every commit on
    stdout, and at the armed site it announces readiness and stops the
    process so the parent can deliver the real ``SIGKILL`` instead of
    calling ``controller.crash()``.  Like the in-process crash, the
    stop is scheduled, so the protocol method that fired the probe
    unwinds first."""

    def observe(self, kind: str, detail: str) -> None:
        if kind == "commit":
            sys.stdout.write(
                f"{_COMMIT_PREFIX}{self.controller.committed_epoch}\n")
            sys.stdout.flush()
        super().observe(kind, detail)

    def _do_crash(self) -> None:
        sys.stdout.write(READY_MARKER + "\n")
        sys.stdout.flush()
        os.kill(os.getpid(), signal.SIGSTOP)


def run_child(plan: CrashPlan, store_dir: str) -> int:
    """Drive the plan's workload; freeze at the armed site.

    Runs in the child process.  Prints ``CRASHPROC-COMMIT <epoch>``
    at each commit probe (the parent's committed-prefix knowledge),
    ``CRASHPROC-READY`` then ``SIGSTOP`` at the crash site, or
    ``CRASHPROC-UNREACHED`` if the site never fires.
    """
    config = crashproc_config(store_dir)
    schedule = build_schedule(plan.workload, plan.seed, plan.epochs,
                              plan.blocks, config)
    drive_plan(plan, schedule, config, _FreezeInjector)
    sys.stdout.write(UNREACHED_MARKER + "\n")
    sys.stdout.flush()
    return 0


# --- recovery process ----------------------------------------------------


def run_recover(plan: CrashPlan, store_dir: str) -> Dict[str, Any]:
    """Attach the NVM image in a fresh process and recover from it.

    No controller and no simulation exist here: recovery is a pure
    function of the file contents, exactly the property cross-process
    crash testing is meant to establish.
    """
    config = crashproc_config(store_dir)
    schedule = build_schedule(plan.workload, plan.seed, plan.epochs,
                              plan.blocks, config)
    nvm = MmapStore(config.block_bytes, HardwareLayout(config).nvm_bytes,
                    os.path.join(store_dir, NVM_IMAGE),
                    msync_policy="none", must_exist=True)
    try:
        recovered = recover_image(config, nvm)
        image = {block: recovered.visible_block(block)
                 for block in observed_blocks(schedule)}
    finally:
        nvm.close()
    return {
        "plan": str(plan),
        "recovered_epoch": recovered.epoch,
        "image": {str(block): data.hex()
                  for block, data in sorted(image.items())},
    }


# --- parent orchestration ------------------------------------------------


@dataclass
class CrashProcResult:
    """Outcome of one cross-process crash cycle (JSON-stable)."""

    plan: str
    outcome: str                      # "pass" | "fail" | "unreached"
    recovered_epoch: Optional[int] = None
    committed_epochs: List[int] = field(default_factory=list)
    detail: str = ""                  # failure description ("" if none)
    store_dir: str = ""               # kept image dir ("" if removed)

    @property
    def failed(self) -> bool:
        return self.outcome == "fail"

    def to_dict(self) -> Dict[str, object]:
        return {
            "plan": self.plan,
            "outcome": self.outcome,
            "recovered_epoch": self.recovered_epoch,
            "committed_epochs": list(self.committed_epochs),
            "detail": self.detail,
            "store_dir": self.store_dir,
        }


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (package_root + os.pathsep + existing
                         if existing else package_root)
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def _child_argv(plan: CrashPlan, store_dir: str) -> List[str]:
    """The command line of the child that runs :func:`run_child`."""
    return [sys.executable, "-m", "repro.cli", "crashproc", str(plan),
            "--store-dir", store_dir, "--child"]


def _drive_child(plan: CrashPlan, store_dir: str,
                 timeout: float) -> Tuple[List[int], str]:
    """Spawn the child, follow its markers, SIGKILL it at the site.

    Returns the committed epochs the child reported and the marker it
    stopped at (``READY_MARKER`` or ``UNREACHED_MARKER``).  Raises
    :class:`WorkloadError` on timeout or an unexpected child death.
    """
    proc = subprocess.Popen(_child_argv(plan, store_dir),
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_child_env())
    stdout = proc.stdout
    assert stdout is not None
    committed: List[int] = []
    marker = ""
    buffer = b""
    deadline = time.monotonic() + timeout
    try:
        fd = stdout.fileno()
        while not marker:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkloadError(
                    f"crashproc child timed out after {timeout:.0f}s "
                    f"({plan})")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if chunk == b"":
                stderr = proc.stderr
                tail = (stderr.read().decode("utf-8", "replace").strip()
                        if stderr is not None else "")
                raise WorkloadError(
                    "crashproc child exited before reaching the site "
                    f"({plan}): {tail or 'no stderr'}")
            buffer += chunk
            while b"\n" in buffer:
                raw, buffer = buffer.split(b"\n", 1)
                line = raw.decode("utf-8", "replace").strip()
                if line.startswith(_COMMIT_PREFIX):
                    committed.append(int(line[len(_COMMIT_PREFIX):]))
                elif line in (READY_MARKER, UNREACHED_MARKER):
                    marker = line
                    break
        if marker == READY_MARKER:
            # The child is SIGSTOPped mid-simulation: this is the real
            # kill -9 — nothing in the child ever runs again.
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        stdout.close()
        if proc.stderr is not None:
            proc.stderr.close()
    return committed, marker


def _recover_in_fresh_process(plan: CrashPlan, store_dir: str,
                              timeout: float) -> Dict[str, Any]:
    argv = [sys.executable, "-m", "repro.cli", "crashproc", str(plan),
            "--store-dir", store_dir, "--recover"]
    done = subprocess.run(argv, capture_output=True, text=True,
                          timeout=timeout, env=_child_env())
    if done.returncode != 0:
        raise WorkloadError(
            f"crashproc recovery failed (exit {done.returncode}): "
            f"{done.stderr.strip() or done.stdout.strip()}")
    payload: Dict[str, Any] = json.loads(done.stdout)
    return payload


def run_crashproc(plan: CrashPlan, store_dir: Optional[str] = None,
                  keep: bool = False,
                  timeout: float = 180.0) -> CrashProcResult:
    """One full kill -9 cycle: drive, kill, recover, check the oracle.

    The image directory is a fresh tempdir unless ``store_dir`` is
    given; on failure (or with ``keep``) it survives as the forensic
    artifact and its path is recorded in the result.
    """
    owned = store_dir is None
    directory = (tempfile.mkdtemp(prefix="crashproc-")
                 if store_dir is None else store_dir)
    result = CrashProcResult(plan=str(plan), outcome="pass",
                             store_dir=directory)
    config = fuzz_config()
    try:
        committed, marker = _drive_child(plan, directory, timeout)
        result.committed_epochs = committed
        if marker == UNREACHED_MARKER:
            result.outcome = "unreached"
            result.detail = (f"site {plan.site}"
                             f"{'.' + plan.detail if plan.detail else ''}"
                             f"#{plan.occurrence} never fired")
        else:
            recovered = _recover_in_fresh_process(plan, directory, timeout)
            schedule = build_schedule(plan.workload, plan.seed, plan.epochs,
                                      plan.blocks, config)
            epoch = int(recovered["recovered_epoch"])
            image = {int(block): bytes.fromhex(data)
                     for block, data in recovered["image"].items()}
            result.recovered_epoch = epoch
            # Redo journaling commits early: once the log stage is
            # durable, the next epoch is recoverable by replay.
            newest = max(committed, default=-1)
            accepted = [newest]
            if plan.system == "journal":
                accepted.append(newest + 1)
            result.detail = check_committed_prefix(
                epoch, image, golden_images(schedule), accepted,
                config.block_bytes)
            if result.detail:
                result.outcome = "fail"
    finally:
        if owned and not (keep or result.failed):
            shutil.rmtree(directory, ignore_errors=True)
            result.store_dir = ""
    return result


def run_sweep(quick: bool = False, store_root: Optional[str] = None,
              keep: bool = False,
              timeout: float = 180.0) -> List[CrashProcResult]:
    """The kill -9 sweep: every system at every sweep site.

    Any outcome other than "pass" — including "unreached", which means
    the site catalogue and the protocol have drifted apart — counts as
    a sweep failure for the caller.
    """
    results: List[CrashProcResult] = []
    for plan in sweep_plans(quick):
        directory: Optional[str] = None
        if store_root is not None:
            directory = os.path.join(
                store_root, str(plan).replace("/", "_").replace("@", "_"))
            os.makedirs(directory, exist_ok=True)
        result = run_crashproc(plan, store_dir=directory, keep=keep,
                               timeout=timeout)
        if (store_root is not None and directory is not None
                and not (keep or result.failed)):
            shutil.rmtree(directory, ignore_errors=True)
            result.store_dir = ""
        results.append(result)
    return results
