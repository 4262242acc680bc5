"""Crash-site probes: named notification points in the protocol.

The fuzz campaign (``repro fuzz``) needs to crash the simulation at the
*N*-th occurrence of a protocol event — "the second BTT persist", "the
first commit-record write" — rather than at an arbitrary cycle.  The
controller and checkpoint machinery call :func:`notify` at each such
site; an observer installed with :func:`set_observer` counts matches
and arms the crash.

When no observer is installed (every normal run, every benchmark) a
probe is a module lookup, an ``is None`` test and a return — cheap
enough to leave compiled in.  Probe sites fire at epoch-boundary rate,
never per memory *request* — the one per-block kind, ``bulk-write``,
fires once per durable block of a checkpoint's bulk runs (shadow
paging's page flush, ThyNVM's page stage), which is still bounded by
the dirty footprint of the epoch.

The site kinds are declared once, in :data:`SITE_KINDS` (the crash-site
taxonomy; see docs/FUZZING.md); ``repro fuzz sites`` prints it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

Observer = Callable[[str, str], None]

_observer: Optional[Observer] = None

#: Every site kind notify() may legally be called with, mapped to the
#: protocol event that fires it: the crash-site taxonomy.
SITE_KINDS: Dict[str, str] = {
    "ckpt-start": "a checkpoint run begins issuing its staged jobs",
    "stage-done": "one checkpoint stage is fully serviced (detail: index)",
    "bulk-write": "one block of a checkpoint bulk run (shadow paging's "
                  "page flush, ThyNVM's page stage) becomes durable "
                  "(detail: stage index)",
    "table-persist": "a translation-table/log persist stage is planned "
                     "(detail: btt/ptt/log/pagemap)",
    "fence": "the pre-commit NVM write-queue fence is issued",
    "commit-write": "the commit record is submitted to NVM",
    "commit": "the commit record is serviced and metadata flips",
    "store-sync": "the backing stores are flushed to their medium "
                  "(mmap msync at the commit point)",
    "aux-commit": "an auxiliary (sub-epoch) checkpoint commits",
    "promote": "a page is adopted into the DRAM buffer (detail: page)",
    "demote": "a page demotion starts (detail: page)",
}


def set_observer(observer: Optional[Observer]) -> Optional[Observer]:
    """Install (or clear, with None) the process-wide probe observer.

    Returns the previous observer so callers can restore it.  The fuzz
    runner installs exactly one observer per simulated run; probes are
    process-global because a run owns its worker process.
    """
    global _observer
    previous = _observer
    _observer = observer
    return previous


def notify(kind: str, detail: str = "") -> None:
    """Report one protocol event to the observer, if any is installed."""
    if _observer is not None:
        _observer(kind, detail)
