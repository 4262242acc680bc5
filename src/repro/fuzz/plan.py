"""Crash plans: one fully deterministic crash schedule per plan.

A :class:`CrashPlan` pins down everything that varies between fuzz
runs: the system, the workload shape, and the crash trigger (site kind,
optional detail, occurrence ordinal, cycle jitter).  Its string form::

    thynvm/sparse:s3:e2:b24@commit-write#2+150
    journal/hotpage:s0:e3:b16@table-persist.log#1+0

round-trips exactly (``parse_plan(str(plan)) == plan``) and serves as
the ``repro fuzz replay`` argument; its digest names the plan's corpus
file.  Everything downstream of a plan string is deterministic, so one
string *is* one reproducible simulation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..core.probes import SITE_KINDS
from ..errors import WorkloadError
from .workloads import WORKLOAD_NAMES

#: Systems the fuzzer drives; the canonical tuple (the runner and the
#: campaign import it from here to avoid an import cycle).
FUZZ_SYSTEMS = ("thynvm", "thynvm_block_only", "thynvm_page_only",
                "journal", "shadow")

_PLAN_RE = re.compile(
    r"^(?P<system>[a-z0-9_]+)/(?P<workload>[a-z0-9_]+)"
    r":s(?P<seed>\d+):e(?P<epochs>\d+):b(?P<blocks>\d+)"
    r"@(?P<kind>[a-z-]+)(?:\.(?P<detail>[a-zA-Z0-9_]+))?"
    r"#(?P<occurrence>\d+)\+(?P<jitter>\d+)$")


@dataclass(frozen=True)
class CrashPlan:
    """One deterministic crash schedule (picklable, hashable)."""

    system: str          # harness system name (e.g. "thynvm", "journal")
    workload: str        # fuzz workload name (see fuzz.workloads)
    seed: int            # shapes the write schedule
    epochs: int          # epoch boundaries the workload drives
    blocks: int          # working-set size in blocks
    site: str            # probe kind to crash at (fuzz site taxonomy)
    detail: str = ""     # probe detail filter ("" matches any)
    occurrence: int = 1  # crash at the N-th matching probe (1-based)
    jitter: int = 0      # extra cycles between the probe and the crash

    def __post_init__(self) -> None:
        if self.system not in FUZZ_SYSTEMS:
            raise WorkloadError(
                f"unknown fuzz system {self.system!r} "
                f"(have: {', '.join(FUZZ_SYSTEMS)})")
        if self.workload not in WORKLOAD_NAMES:
            raise WorkloadError(
                f"unknown fuzz workload {self.workload!r} "
                f"(have: {', '.join(WORKLOAD_NAMES)})")
        if self.site not in SITE_KINDS:
            raise WorkloadError(
                f"unknown crash site kind {self.site!r} "
                f"(have: {', '.join(SITE_KINDS)})")
        if self.occurrence < 1:
            raise WorkloadError(
                f"plan occurrence must be >= 1, got {self.occurrence}")
        if self.epochs < 1 or self.blocks < 1 or self.seed < 0 \
                or self.jitter < 0:
            raise WorkloadError(f"malformed crash plan: {self!r}")

    def __str__(self) -> str:
        detail = f".{self.detail}" if self.detail else ""
        return (f"{self.system}/{self.workload}"
                f":s{self.seed}:e{self.epochs}:b{self.blocks}"
                f"@{self.site}{detail}#{self.occurrence}+{self.jitter}")

    def replace(self, **changes: object) -> "CrashPlan":
        """A copy with some fields replaced (minimization steps)."""
        fields = dict(system=self.system, workload=self.workload,
                      seed=self.seed, epochs=self.epochs, blocks=self.blocks,
                      site=self.site, detail=self.detail,
                      occurrence=self.occurrence, jitter=self.jitter)
        fields.update(changes)
        return CrashPlan(**fields)    # type: ignore[arg-type]


def parse_plan(text: str) -> CrashPlan:
    """Parse a plan string; raises WorkloadError on malformed input."""
    match = _PLAN_RE.match(text.strip())
    if match is None:
        raise WorkloadError(f"unparsable crash plan: {text!r}")
    parts = match.groupdict()
    return CrashPlan(
        system=parts["system"],
        workload=parts["workload"],
        seed=int(parts["seed"]),
        epochs=int(parts["epochs"]),
        blocks=int(parts["blocks"]),
        site=parts["kind"],
        detail=parts["detail"] or "",
        occurrence=int(parts["occurrence"]),
        jitter=int(parts["jitter"]),
    )
