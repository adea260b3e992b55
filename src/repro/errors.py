"""Project-wide exception hierarchy.

Subsystems raise their own specific exceptions; all of them derive from
:class:`ReproError` so callers can catch everything from this library with a
single except clause without swallowing unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An experiment or component was configured inconsistently."""


class ProtocolError(ReproError):
    """A protocol participant received a message it cannot process."""


class CryptoError(ReproError):
    """A message failed to seal or open (not a protocol message, wrong key, forged)."""


class CalibrationError(ReproError):
    """Clock calibration could not be computed from the available samples."""


class FleetError(ReproError):
    """The fleet execution engine could not run or complete a task batch."""


class OracleViolationError(ReproError):
    """A strict-mode oracle run observed unexpected invariant violations.

    Carries the offending records as plain dicts (see
    :meth:`repro.oracle.Violation.to_dict`) so the exception pickles
    cleanly across fleet worker process boundaries. Deterministic by
    construction — the same task always violates the same way — so the
    fleet pool must not retry it.
    """

    def __init__(self, message: str, violations: list[dict] | None = None) -> None:
        super().__init__(message)
        self.violations = violations or []

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.violations))


class MonitoringAlert(ReproError):
    """The in-enclave TSC monitor detected a discrepancy.

    Raised (or recorded, depending on policy) when INC-counting over a TSC
    window deviates beyond the calibrated tolerance — the signal Triad uses
    to detect TSC rate/offset manipulation.
    """
