"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised deliberately by the library derive from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors (``TypeError``, ``KeyError``, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """A parameter is outside the domain the paper's model allows.

    Examples: a consistency radius ``r`` outside ``[0, 1/4)``, a density
    threshold ``tau`` outside ``[1, n - 1]``, or a QoS coordinate outside
    the unit cube.
    """


class DimensionMismatchError(ReproError):
    """Two point collections that must share a dimension do not."""


class UnknownDeviceError(ReproError):
    """A device identifier is not part of the system state."""


class PartitionError(ReproError):
    """A candidate partition violates Definition 6 of the paper."""


class SearchBudgetExceeded(ReproError):
    """An exhaustive search (oracle or Theorem 7) hit its safety budget.

    The necessary-and-sufficient condition of Theorem 7 explores a number
    of collections that grows combinatorially (Table III in the paper
    reports ~2.45e6 collections per unresolved device).  Callers may bound
    that exploration; exceeding the bound raises this exception instead of
    silently returning a wrong answer.
    """


class TraceFormatError(ReproError):
    """A serialized trace or result file could not be parsed."""


class QueueFullError(ReproError):
    """A bounded ingest queue refused an event.

    Raised by the online characterization service when its queue is at
    capacity and the configured backpressure policy is ``"error"`` (the
    ``"block"`` and ``"drop-oldest"`` policies resolve the overflow
    themselves).
    """


class CheckpointError(ReproError):
    """A service checkpoint is missing, corrupt, or version-incompatible."""
