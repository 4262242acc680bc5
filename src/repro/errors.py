"""Exception hierarchy for the ThyNVM reproduction.

All library errors derive from :class:`ReproError` so callers can catch
everything from this package with a single ``except`` clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class SimulationError(ReproError):
    """The simulation engine was driven into an illegal state."""


class AddressError(ReproError):
    """An address is outside the configured physical address space."""


class TableOverflowError(ReproError):
    """A translation table ran out of entries and could not evict.

    This is internal: the ThyNVM controller is expected to catch it and
    force an early epoch end (per §4.3 of the paper) rather than let it
    escape to the user.
    """


class ProtocolError(ReproError):
    """The checkpointing protocol attempted an illegal state transition."""


class RecoveryError(ReproError):
    """Post-crash recovery found NVM metadata in an unusable state."""


class WorkloadError(ReproError):
    """A workload generator was misconfigured or produced an invalid op."""


class AllocationError(ReproError):
    """The in-simulation memory allocator ran out of space."""


class CrashedError(ReproError):
    """An operation was submitted to a controller after it crashed.

    Raised by the public controller API (``write_block``, ``read_block``,
    ``persist_barrier``, ``drain``, a second ``crash()``) once power is
    lost.  Internal event callbacks that fire after the crash still
    return silently — those model in-flight work cut off by power loss,
    not caller protocol violations.
    """


class FuzzFailure(ReproError):
    """A fuzz campaign found (or re-found) a crash-consistency failure.

    Used by the CLI to turn "the campaign worked and found real bugs"
    into a distinct exit code from "the tool itself broke".
    """


class ClaimFailure(ReproError):
    """A `repro bench` run broke one of the paper's declared claims.

    Like :class:`FuzzFailure`, a distinct exit code separates "the
    experiments ran and a measured shape contradicts the paper" from
    "the tool itself broke".
    """


# CLI exit-code registry: every ReproError subclass maps to a stable,
# distinct nonzero exit code (argparse owns 2; 1 stays generic).
EXIT_CODES = {
    ConfigError: 10,
    SimulationError: 11,
    AddressError: 12,
    TableOverflowError: 13,
    ProtocolError: 14,
    RecoveryError: 15,
    WorkloadError: 16,
    AllocationError: 17,
    CrashedError: 18,
    FuzzFailure: 20,
    ClaimFailure: 21,
    ReproError: 19,
}


def exit_code_for(error: ReproError) -> int:
    """Most-specific registered exit code for ``error`` (19 = base)."""
    for klass in type(error).__mro__:
        if klass in EXIT_CODES:
            return EXIT_CODES[klass]
    return EXIT_CODES[ReproError]
