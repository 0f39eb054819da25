"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Subclasses separate user errors (bad configuration or
arguments) from internal invariant violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError, ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


class ShapeError(ReproError, ValueError):
    """An array argument has the wrong shape or dtype."""


class NotFittedError(ReproError, RuntimeError):
    """A model method requiring a fitted model was called before ``fit``."""


class VocabularyError(ReproError, ValueError):
    """A concept or token is not part of the active vocabulary."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to converge within its iteration budget."""


# -- failure taxonomy (serving / pipeline resilience) -------------------------
#
# The fault-tolerance layer (:mod:`repro.utils.faults`,
# :mod:`repro.utils.retry`, the store's integrity checks, and the serving
# layer's admission and deadline checks) speaks in these types so callers
# can route on the *class* of failure: retry transients, rebuild
# corruptions, shed on overload, and give up on blown deadlines.


class TransientError(ReproError, RuntimeError):
    """A failure expected to succeed on retry (flaky I/O, injected fault).

    :class:`~repro.utils.retry.RetryPolicy` retries these by default; a
    transient that survives every attempt still surfaces as this type so
    the caller knows retrying more is pointless, not wrong.
    """


class ArtifactCorruptionError(ReproError, RuntimeError):
    """A stored artifact failed its integrity check (digest mismatch,
    truncated archive, unreadable manifest).

    Never retried — the bytes on disk are wrong, not busy.  The store
    quarantines the entry and rebuilds instead.
    """


class OverloadedError(ReproError, RuntimeError):
    """The service shed this request because its pending queue is full.

    Back off and retry later; the request was rejected before any work.
    """


class DeadlineExceededError(ReproError, RuntimeError):
    """A request's deadline budget expired before an answer was ready."""


class ShutdownError(ReproError, RuntimeError):
    """The service is draining for shutdown and refuses new requests.

    In-flight requests complete normally; retry against a live replica.
    """


class ValidationError(ReproError, ValueError):
    """A request payload failed schema validation (HTTP front end)."""
