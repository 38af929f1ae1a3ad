"""Exception hierarchy for the Newton reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An invalid DRAM/Newton configuration was supplied."""


class TimingViolationError(ReproError):
    """A command stream violated a DRAM timing constraint.

    The constraint-based controller normally *stalls* commands until they
    are legal; this error is reserved for states that can never become
    legal (e.g. reading a column of a bank with no open row).
    """


class LayoutError(ReproError):
    """A matrix/vector does not fit, or an address fell outside a layout."""


class CapacityError(ReproError):
    """The requested allocation exceeds the device's storage."""


class ProtocolError(ReproError):
    """A Newton command was used in a way the interface forbids.

    Examples: issuing ``COMP`` before the global buffer was loaded, or
    reading a result latch that was never written.
    """


class VerificationError(ReproError):
    """An execution violated a protocol invariant, or a trace could not
    be verified.

    Raised by the :mod:`repro.verify` layer: by the opt-in
    ``NEWTON_CHECK_INVARIANTS=1`` engine hook when the post-hoc trace
    validator finds a timing or semantic protocol violation, and by the
    verifier itself when a trace is unverifiable (e.g. its ring buffer
    overflowed and records were lost).
    """


class TelemetryError(ReproError):
    """A metrics record failed schema validation or internal accounting.

    Raised by :func:`repro.telemetry.validate_metrics` when an exported
    breakdown is malformed — e.g. its attributed cycles do not sum to
    the run's end cycle."""


class ServingError(ReproError):
    """The serving gateway was misconfigured or deadlocked.

    Raised by :mod:`repro.serving`: for invalid gateway/traffic
    configuration (bad trace specs, non-positive windows, unknown SLO
    classes) and by the virtual-time kernel when every task is blocked
    with no timer left to fire (a coordination bug in gateway code)."""


class WorkerError(ReproError):
    """A process worker failed, died, or sent no reply in time.

    Raised in the parent by
    :class:`repro.cluster.process_pool.ProcessWorker`: a remote failure
    carries the worker's own traceback text, so it reads like a local
    one; a dead worker or one silent past the reply deadline is
    killed."""
