"""Exception hierarchy for the :mod:`repro` package.

Mirrors (loosely) the HPX error-code taxonomy: every error raised by the
runtime, the hardware models, or the SIMD layer derives from
:class:`ReproError` so callers can catch library failures without masking
programming errors such as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "RuntimeStateError",
    "FutureError",
    "FutureAlreadySetError",
    "FutureNotReadyError",
    "BrokenPromiseError",
    "ChannelClosedError",
    "TimeoutError",
    "FutureTimeoutError",
    "ChannelTimeoutError",
    "DeadlockError",
    "AgasError",
    "UnknownGidError",
    "MigrationError",
    "ParcelError",
    "SerializationError",
    "ParcelDeadLetterError",
    "ParcelShedError",
    "ResilienceError",
    "CheckpointError",
    "CheckpointCorruptionError",
    "CheckpointCorruptionWarning",
    "ServiceError",
    "JournalCorruptError",
    "JobStateError",
    "UnknownJobError",
    "JobShedError",
    "TopologyError",
    "PinningError",
    "SimdError",
    "LayoutError",
    "ConfigError",
    "ValidationError",
    "AnalysisError",
    "DataRaceError",
    "QuiescenceWarning",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class RuntimeStateError(ReproError):
    """The runtime was used in a state where the operation is invalid.

    Examples: scheduling work before :meth:`Runtime.start`, resolving an
    executor after shutdown, or double-starting a locality.
    """


class FutureError(ReproError):
    """Base class for future/promise protocol violations."""


class FutureAlreadySetError(FutureError):
    """A promise or future was given a value (or exception) twice."""


class FutureNotReadyError(FutureError):
    """A non-blocking ``get`` was attempted on a future with no value yet."""


class BrokenPromiseError(FutureError):
    """The producing task died without ever setting its promise."""


class ChannelClosedError(ReproError):
    """A ``set``/``get`` was attempted on a closed channel."""


class TimeoutError(ReproError):  # noqa: A001 - deliberate HPX-style name
    """Base of the timeout subtree: a deadline in *virtual* time passed.

    Deadlines are measured on the simulated clock, so a timeout is a
    deterministic property of the schedule, not of wall-clock load.
    """


class FutureTimeoutError(TimeoutError, FutureError):
    """``Future.wait_for``/``when_all(timeout=...)`` deadline expired."""


class ChannelTimeoutError(TimeoutError):
    """``Channel.get(timeout=...)`` produced no value by the deadline."""


class DeadlockError(ReproError):
    """The cooperative scheduler ran out of runnable work while tasks wait.

    Raised by the scheduler when every remaining task is suspended on an LCO
    that no runnable task can trigger -- the cooperative analogue of a hung
    ``pthread_join``.
    """


class AgasError(ReproError):
    """Base class for Active Global Address Space failures."""


class UnknownGidError(AgasError):
    """A GID could not be resolved to a live object."""


class MigrationError(AgasError):
    """An object migration could not be performed (e.g. pinned object)."""


class ParcelError(ReproError):
    """A parcel could not be delivered or decoded."""


class SerializationError(ParcelError):
    """An argument could not be serialized for remote dispatch."""


class ParcelDeadLetterError(ParcelError):
    """A parcel exhausted its delivery attempts and was dead-lettered.

    Raised on the sender's reply future, and by the progress engine when
    the job stalls with undeliverable parcels in the dead-letter queue.
    """


class ParcelShedError(ParcelDeadLetterError):
    """Admission control rejected the parcel (overload protection).

    Raised on the sender's reply future when the overload controller
    sheds a parcel instead of queueing it -- the destination is over its
    queue-depth limit, its circuit breaker is open, or a deferred
    LOW-priority parcel ran out of deferrals.  Subclasses
    :class:`ParcelDeadLetterError` so existing recovery drivers treat a
    shed like any other dead-lettered parcel.  ``retry_after`` hints how
    many *virtual* seconds the sender should wait before retrying (0.0
    when no estimate is available).
    """

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ResilienceError(ReproError):
    """Base class for checkpoint/restart failures."""


class CheckpointError(ResilienceError):
    """A checkpoint could not be saved, decoded, or restored."""


class CheckpointCorruptionError(CheckpointError):
    """A checkpoint failed checksum verification on restore.

    The coordinated-snapshot store reacts by falling back to the newest
    older epoch that still verifies; this error escapes only when *no*
    retained checkpoint is intact.
    """


class CheckpointCorruptionWarning(UserWarning):
    """A retained checkpoint epoch failed verification and was skipped.

    Emitted (warning level) by
    :meth:`~repro.resilience.checkpoint.CheckpointStore.restore_latest_valid`
    when it falls back past a corrupt epoch: recovery still succeeds
    from an older snapshot, but re-computation ground was silently at
    stake, so the skip is surfaced via this warning, the
    ``/checkpoints{total}/count/corrupt-skipped`` perfcounter, and a
    ``checkpoint_corrupt_skipped`` trace event.
    """


class ServiceError(ReproError):
    """Base class for multi-tenant job-service failures."""


class JournalCorruptError(ServiceError):
    """A *non-final* journal record failed framing or checksum checks.

    A torn final record (the crash-mid-append case) is tolerated and
    dropped on replay; corruption anywhere earlier means the store
    cannot be trusted and replay refuses to proceed.
    """


class JobStateError(ServiceError):
    """An illegal job state transition was attempted.

    The job state machine is strict (``pending -> claimed -> running ->
    done | failed | cancelled`` with lease-expiry requeues back to
    ``pending``); in particular a *terminal* job never transitions
    again, which is what makes terminal states exactly-once.
    """


class UnknownJobError(ServiceError):
    """A job id could not be resolved in the store."""


class JobShedError(ServiceError):
    """Admission control rejected a job submission (never silently).

    Raised when the tenant is over quota, the service backlog is at its
    bound, or the tenant's circuit breaker is open.  ``retry_after``
    hints how many seconds the client should wait before resubmitting
    (0.0 when no estimate is available) -- the job-level analogue of
    :class:`ParcelShedError`.
    """

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class TopologyError(ReproError):
    """A hardware-topology query or construction was invalid."""


class PinningError(TopologyError):
    """A worker could not be bound to the requested processing unit."""


class SimdError(ReproError):
    """Base class for SIMD layer errors."""


class LayoutError(SimdError):
    """Virtual-node-scheme layout transform got an incompatible shape."""


class ConfigError(ReproError):
    """Invalid runtime configuration value."""


class ValidationError(ReproError):
    """A numerical validation check failed (stencil verification)."""


class AnalysisError(ReproError):
    """Base class for sanitizer findings (race/deadlock analysis)."""


class DataRaceError(AnalysisError):
    """Two unordered accesses to shared state, at least one a write.

    Raised by the happens-before race detector
    (:class:`repro.analysis.race.RaceDetector`).  ``location`` names the
    racing field; ``current`` and ``previous`` are the two
    :class:`~repro.analysis.race.AccessRecord`\\ s, each carrying the
    access site.
    """

    def __init__(
        self,
        message: str,
        location: str = "",
        current: object = None,
        previous: object = None,
    ) -> None:
        super().__init__(message)
        self.location = location
        self.current = current
        self.previous = previous


class QuiescenceWarning(ReproError, UserWarning):
    """The job drained with demanded futures still unfulfilled.

    Emitted (or escalated to :class:`DeadlockError` under
    ``runtime.quiescence = "raise"``) when a run ends while some
    continuation target -- a dataflow stage, combinator result, or
    channel read -- can never become ready: the silent-hang failure
    mode.
    """
