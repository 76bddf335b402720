"""Parcelports: how parcels reach the destination locality.

The port computes the *arrival time* of each parcel and hands it to a
router callback installed by the runtime (which decodes the payload and
spawns the handler task at that virtual time).  Two ports exist:

* :class:`LoopbackParcelport` -- zero-delay, for single-node runs;
* :class:`NetworkParcelport` -- delays from the machine's
  :class:`~repro.hardware.interconnect.Interconnect`.  When the platform
  cannot progress communication in the background (``overlap=False`` --
  the Kunpeng 916 case), the *sending task* is charged the transfer
  time, so communication eats into compute exactly as the paper
  describes.

When a :class:`~repro.resilience.faults.FaultInjector` is installed the
port becomes lossy: every transmission gets a fate (deliver, drop,
corrupt, duplicate, delay-spike).  A :class:`RetryPolicy` layers
reliable delivery on top -- lost parcels are retransmitted after an
ack-timeout with capped exponential backoff, all on the virtual clock,
and land in the dead-letter queue once attempts are exhausted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ...errors import ConfigError, ParcelDeadLetterError, ParcelError, ParcelShedError
from ...hardware.interconnect import Interconnect
from .. import context as ctx
from .. import instrument
from .parcel import Parcel

if TYPE_CHECKING:  # pragma: no cover
    from ...resilience.faults import FaultInjector
    from ...resilience.overload import OverloadController

__all__ = ["RetryPolicy", "Parcelport", "LoopbackParcelport", "NetworkParcelport"]

#: Router signature: (parcel, arrival_time) -> None.
Router = Callable[[Parcel, float], None]

#: Retry-scheduler signature: (parcel, retransmit_at_virtual_time) -> None.
RetryScheduler = Callable[[Parcel, float], None]


def _sender_lane() -> tuple[str, int | None]:
    """``(pool name, worker id)`` of the task doing the send, for events."""
    frame = ctx.current_or_none()
    if frame is not None and frame.pool is not None:
        return frame.pool.name, frame.worker_id
    return "", None


@dataclass(frozen=True)
class RetryPolicy:
    """Ack-timeout retransmission with capped exponential backoff.

    ``attempt`` counts *transmissions already made*, so the wait before
    retransmission ``k+1`` is ``min(base * backoff**(k-1), cap)``.  With
    ``enabled=False`` the first loss dead-letters immediately (the
    "retry disabled" ablation).
    """

    enabled: bool = True
    max_attempts: int = 8
    base_timeout_s: float = 1e-5
    max_timeout_s: float = 64e-5
    backoff: float = 2.0
    #: Jitter fraction in [0, 1]: each retry timeout is scaled by a
    #: seeded factor in ``[1 - jitter, 1]`` so retries toward a
    #: recovering locality de-synchronize instead of stampeding it.
    #: 0 (the default) keeps the historical synchronized schedule.
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.base_timeout_s <= 0 or self.max_timeout_s <= 0:
            raise ConfigError("retry timeouts must be positive")
        if self.max_timeout_s < self.base_timeout_s:
            raise ConfigError("max_timeout_s must be >= base_timeout_s")
        if self.backoff < 1.0:
            raise ConfigError("backoff factor must be >= 1.0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError("retry jitter must be in [0, 1]")

    def timeout(self, attempt: int) -> float:
        """Ack-timeout after transmission number ``attempt`` (1-based);
        saturates at ``max_timeout_s`` for any attempt, however large."""
        if attempt < 1:
            raise ConfigError("attempt numbers are 1-based")
        try:
            grown = self.base_timeout_s * self.backoff ** (attempt - 1)
        except OverflowError:  # float ** int past ~1e308 raises, not inf
            return self.max_timeout_s
        return min(grown, self.max_timeout_s)

    def jittered_timeout(self, attempt: int, sequence: int) -> float:
        """:meth:`timeout` scaled by seeded downward jitter.

        ``sequence`` is a stable per-parcel index (insertion order into
        the port's retry map), so the jitter is a pure function of
        ``(seed, sequence, attempt)`` -- bit-identical across runs and
        independent of dict iteration order.  Downward-only jitter keeps
        every timeout under the backoff cap.
        """
        base = self.timeout(attempt)
        if self.jitter == 0.0:
            return base
        rng = random.Random(f"{self.seed}:retry:{sequence}:{attempt}")
        return base * (1.0 - self.jitter * rng.random())


class Parcelport:
    """Base parcelport: statistics, the router hookup, and loss handling."""

    def __init__(self) -> None:
        self._router: Router | None = None
        self._retry_scheduler: RetryScheduler | None = None
        #: Installed by the runtime when fault injection is requested.
        self.fault_injector: "FaultInjector | None" = None
        self.retry_policy: RetryPolicy | None = None
        #: Installed by the runtime when ``overload.enabled`` is set;
        #: gates every first-time :meth:`send` through admission control.
        self.overload: "OverloadController | None" = None
        #: Dead-letter queue bound (0 = unbounded); the runtime installs
        #: its own.  Oldest entries are evicted first;
        #: assigning a smaller bound trims (and counts) immediately.
        self._dlq_max = 0
        self.parcels_sent = 0
        self.bytes_sent = 0
        #: Transmissions the router accepted (wire-level deliveries; a
        #: duplicated parcel counts twice, dedupe happens at the action
        #: layer) and their accumulated send-to-arrival virtual latency.
        self.parcels_delivered = 0
        self.latency_total_s = 0.0
        self.parcels_dropped = 0
        self.parcels_corrupted = 0
        self.parcels_duplicated = 0
        self.parcels_delayed = 0
        self.parcels_retried = 0
        self.parcels_retransmitted = 0
        self.parcels_dead_lettered = 0
        #: Sheds appended to the dead-letter queue (kept separate from
        #: :attr:`parcels_dead_lettered`, which stays "retries exhausted"
        #: for the overload conservation law).  Together they reconcile
        #: the queue length: ``len(dead_letters) == dead_lettered +
        #: shed_lettered - dlq_evicted`` at all times.
        self.parcels_shed_lettered = 0
        self.parcels_dlq_evicted = 0
        #: Stable parcel -> jitter-sequence mapping for
        #: :meth:`RetryPolicy.jittered_timeout` (insertion order, the
        #: FaultInjector idiom, so jitter never depends on id recycling).
        self._retry_sequence: dict[int, int] = {}
        #: Parcels given up on, as ``(parcel, reason)`` -- the dead-letter
        #: queue.  The progress engine raises when a job stalls with
        #: entries here; resilient applications may drain it and recover.
        self.dead_letters: list[tuple[Parcel, str]] = []
        #: Ack-timeout escalation: localities a parcel was dead-lettered
        #: against after exhausting every retransmission while the
        #: destination was unreachable.  A suspicion is *evidence*, not a
        #: verdict -- the destination may merely be inside a transient
        #: outage window.  Resilient drivers cross-check against the
        #: fault schedule (``FaultInjector.permanently_down``) before
        #: declaring a node dead, and clear the set each recovery round.
        self.suspected_dead: set[int] = set()

    def install_router(self, router: Router) -> None:
        """The runtime installs its decode-and-dispatch callback here."""
        self._router = router

    def install_retry_scheduler(self, scheduler: RetryScheduler) -> None:
        """The runtime installs the virtual-time retransmission hook here."""
        self._retry_scheduler = scheduler

    def send(self, parcel: Parcel) -> float:
        """Ship a parcel; returns its (nominal) arrival time.

        With an :attr:`overload` controller installed the send is gated
        by admission control first: the parcel may be transmitted,
        stalled awaiting a send credit, deferred (LOW priority), or shed
        with a :class:`~repro.errors.ParcelShedError`.  Stalled and
        deferred parcels are re-sent later by the runtime's resume
        scheduler (they re-enter here already holding their credit, or
        with a bumped deferral count).  Retransmissions of lost parcels
        go through :meth:`retransmit` and are never re-admitted.
        """
        if instrument.enabled and (probe := instrument.probe) is not None:
            probe.event(
                "parcel_send",
                parcel.send_time,
                *_sender_lane(),
                parcel.parcel_id,
                {"attempt": parcel.attempts + 1},
            )
        if self._router is None:
            raise ParcelError("parcelport has no router installed (runtime not booted)")
        controller = self.overload
        if controller is not None and not parcel.holds_credit:
            verdict, detail = controller.admit(parcel)
            if verdict == "shed":
                assert detail is not None
                reason, retry_after = detail
                self._shed(parcel, reason, retry_after=retry_after)
                return parcel.send_time
            if verdict in ("stall", "defer"):
                return parcel.send_time
        return self._transmit(parcel)

    def retransmit(self, parcel: Parcel) -> float:
        """Re-send a lost parcel (called by the runtime's retry task)."""
        if instrument.enabled and (probe := instrument.probe) is not None:
            probe.event(
                "parcel_retry",
                parcel.send_time,
                *_sender_lane(),
                parcel.parcel_id,
                {"attempt": parcel.attempts + 1},
            )
        self.parcels_retransmitted += 1
        return self._transmit(parcel)

    def _transmit(self, parcel: Parcel) -> float:
        router = self._router
        assert router is not None  # send() refuses to start without one
        arrival = self._arrival_time(parcel)
        parcel.attempts += 1
        injector = self.fault_injector
        # Without an injector there is no fate to draw and every
        # loss/delay/duplicate branch below is skipped.
        fate = None if injector is None else injector.parcel_fate(parcel, parcel.attempts)
        if fate is not None:
            if fate.lost:
                # The parcel left the NIC but never usably arrived: it
                # counts as sent, then the loss machinery decides retry vs
                # dead-letter.
                self.parcels_sent += 1
                self.bytes_sent += parcel.size_bytes
                if fate.kind == "corrupt":
                    self.parcels_corrupted += 1
                    self._handle_loss(parcel, "corrupted in flight")
                else:
                    self.parcels_dropped += 1
                    self._handle_loss(parcel, "dropped in flight")
                return arrival
            if fate.kind == "delay":
                arrival += fate.extra_delay_s
        if instrument.enabled and (probe := instrument.probe) is not None:
            probe.event("parcel_recv", arrival, parcel_id=parcel.parcel_id)
        router(parcel, arrival)
        # Statistics move only after the router accepted the parcel: a
        # raising router must not leave phantom counts behind.
        self.parcels_sent += 1
        self.bytes_sent += parcel.size_bytes
        self.parcels_delivered += 1
        latency = arrival - parcel.send_time
        if latency > 0.0:
            self.latency_total_s += latency
        if fate is not None:
            if fate.kind == "delay":
                self.parcels_delayed += 1
            if fate.kind == "duplicate":
                dup_arrival = arrival + fate.extra_delay_s
                if instrument.enabled and (probe := instrument.probe) is not None:
                    probe.event("parcel_recv", dup_arrival, parcel_id=parcel.parcel_id)
                router(parcel, dup_arrival)
                self.parcels_sent += 1
                self.bytes_sent += parcel.size_bytes
                self.parcels_delivered += 1
                self.latency_total_s += max(0.0, dup_arrival - parcel.send_time)
                self.parcels_duplicated += 1
        return arrival

    def report_loss(
        self, parcel: Parcel, reason: str, destination: int | None = None
    ) -> None:
        """Runtime-side loss (e.g. the destination locality was down).

        ``destination`` identifies the unreachable locality; it is
        remembered on the parcel so that, should every retransmission
        fail the same way, the final dead-lettering escalates the
        destination into :attr:`suspected_dead`.
        """
        if destination is not None:
            parcel.unreachable_destination = destination
        self.parcels_dropped += 1
        self._handle_loss(parcel, reason)

    def _handle_loss(self, parcel: Parcel, reason: str) -> None:
        if instrument.enabled and (probe := instrument.probe) is not None:
            probe.event(
                "parcel_drop",
                parcel.send_time,
                parcel_id=parcel.parcel_id,
                args={"reason": reason, "attempt": parcel.attempts},
            )
        policy = self.retry_policy
        if (
            policy is not None
            and policy.enabled
            and parcel.attempts < policy.max_attempts
            and self._retry_scheduler is not None
        ):
            self.parcels_retried += 1
            if policy.jitter > 0.0:
                seq = self._retry_sequence.setdefault(
                    parcel.parcel_id, len(self._retry_sequence)
                )
                wait = policy.jittered_timeout(parcel.attempts, seq)
            else:
                wait = policy.timeout(parcel.attempts)
            self._retry_scheduler(parcel, parcel.send_time + wait)
            return
        self.parcels_dead_lettered += 1
        self._dead_letter(parcel, reason)
        if self.overload is not None:
            # The controller releases the credit, feeds the breaker, and
            # escalates into suspected_dead when the breaker opens.
            self.overload.on_parcel_failed(parcel, parcel.send_time)
        else:
            destination = parcel.unreachable_destination
            if destination is not None:
                self.suspected_dead.add(destination)
        exc = ParcelDeadLetterError(
            f"parcel #{parcel.parcel_id} gave up after {parcel.attempts} "
            f"transmission(s): {reason}"
        )
        promise = parcel.reply_promise
        if promise is not None and not promise.is_ready():
            promise.set_exception(exc)

    @property
    def dlq_max(self) -> int:
        """Dead-letter queue bound (0 = unbounded).

        Assigning a smaller bound mid-run trims the queue immediately,
        counting every dropped entry in :attr:`parcels_dlq_evicted` --
        the queue length and the dead-letter counters stay mutually
        consistent at every moment, not just after the next append.
        """
        return self._dlq_max

    @dlq_max.setter
    def dlq_max(self, bound: int) -> None:
        if bound < 0:
            raise ConfigError("dlq_max must be >= 0 (0 = unbounded)")
        self._dlq_max = bound
        self._trim_dead_letters()

    def _trim_dead_letters(self) -> None:
        bound = self._dlq_max
        if bound > 0:
            excess = len(self.dead_letters) - bound
            if excess > 0:
                del self.dead_letters[:excess]
                self.parcels_dlq_evicted += excess

    def _dead_letter(self, parcel: Parcel, reason: str) -> None:
        """Append to the dead-letter queue, evicting oldest past the bound."""
        self.dead_letters.append((parcel, reason))
        self._trim_dead_letters()

    def _shed(self, parcel: Parcel, reason: str, retry_after: float = 0.0) -> None:
        """Admission control refused the parcel: dead-letter it as a shed.

        Sheds are *not* counted in :attr:`parcels_dead_lettered` (which
        stays "retries exhausted" so the overload conservation law
        ``completed + shed + dead_lettered == submitted`` holds); they
        land in the same queue, tagged, and fail the reply promise with
        :class:`~repro.errors.ParcelShedError` carrying the retry hint.
        """
        self.parcels_shed_lettered += 1
        self._dead_letter(parcel, f"shed: {reason}")
        exc = ParcelShedError(
            f"parcel #{parcel.parcel_id} shed by admission control: {reason}",
            retry_after=retry_after,
        )
        promise = parcel.reply_promise
        if promise is not None and not promise.is_ready():
            promise.set_exception(exc)

    def _arrival_time(self, parcel: Parcel) -> float:
        raise NotImplementedError


class LoopbackParcelport(Parcelport):
    """In-process delivery with no modelled delay."""

    def _arrival_time(self, parcel: Parcel) -> float:
        return parcel.send_time


class NetworkParcelport(Parcelport):
    """Delivery over a modelled interconnect.

    ``resolve_destination`` maps a parcel to its destination locality
    (installed by the runtime, since GID-addressed parcels need AGAS).
    """

    def __init__(
        self,
        interconnect: Interconnect,
        n_localities: int,
        overlap: bool = True,
    ) -> None:
        super().__init__()
        if n_localities < 1:
            raise ParcelError("need at least one locality")
        self.interconnect = interconnect
        self.n_localities = n_localities
        self.overlap = overlap
        self._resolve: Callable[[Parcel], int] | None = None

    def install_resolver(self, resolve: Callable[[Parcel], int]) -> None:
        self._resolve = resolve

    def _arrival_time(self, parcel: Parcel) -> float:
        if self._resolve is None:
            raise ParcelError("parcelport has no destination resolver installed")
        destination = self._resolve(parcel)
        if destination == parcel.source_locality:
            return parcel.send_time
        delay = self.interconnect.transfer_time(parcel.size_bytes, self.n_localities)
        if not self.overlap:
            # The platform cannot hide the transfer: the sending task pays
            # for it on its own core (Sec. VII-A, Kunpeng 916).
            ctx.add_cost(delay)
        return parcel.send_time + delay
