"""Overload protection: admission control, credits, breakers, phi-accrual.

Message-driven runtimes fail ugly under overload: a sender can generate
parcels far faster than a slow locality drains them, and an unprotected
port just queues unboundedly until memory or tail latency blows up --
the failure mode task-based runtimes hit on cheap cores with slow
interconnects.  This module is the substrate the multi-tenant job
service lands on; it layers four mechanisms over the parcelport, all
clocked on the virtual clock so a protected run is as deterministic as
an unprotected one:

* **Admission control with priority-aware shedding** -- LOW-priority
  parcels toward a destination whose backlog exceeds
  ``OverloadPolicy.max_queue_depth`` (or whose credits ran dry) are *deferred*
  with seeded exponential backoff, and shed to the bounded dead-letter
  queue with a :class:`~repro.errors.ParcelShedError` (carrying a
  retry-after hint) once ``overload.defer_max`` deferrals are spent.
* **Credit-based flow control** -- each destination grants
  ``overload.credits`` send credits; a NORMAL/HIGH parcel with no credit
  waits in a per-destination stall queue and is released, oldest first,
  when an ack (handler completion) returns a credit.  A storm toward one
  slow locality therefore throttles *at the sender* instead of flooding
  the destination's queue.
* **Per-destination circuit breakers** -- ``OverloadPolicy.breaker_threshold``
  consecutive dead-letters open the breaker (fail-fast sheds, stalled
  parcels purged, destination escalated into
  :attr:`~repro.runtime.parcel.parcelport.Parcelport.suspected_dead` so
  the PR-4 recovery drivers react to breaker state); after
  ``OverloadPolicy.breaker_reset_s`` virtual seconds one half-open probe is
  allowed through, and its ack closes the breaker again.
* **A phi-accrual failure detector** -- per-peer inter-arrival windows
  of ack times yield a continuous suspicion level
  ``phi = elapsed / (mean * ln 10)`` (exponential-CDF variant).
  Crossing ``OverloadPolicy.phi_throttle`` halves the peer's credit
  ceiling, ``phi_suspect`` opens its breaker, and ``phi_confirm``
  confirms the peer dead -- replacing the single hard-coded ack-timeout
  escalation with a graded verdict.

Every decision is counter-visible (``/overload{...}``, ``/breaker{...}``
and ``/phi{...}`` perfcounters) and reported to the installed
:class:`~repro.runtime.instrument.Probe` as an ``event``.  See
``docs/resilience.md`` ("Overload & graceful degradation") for the state
machines and tuning guidance.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Set

from ..errors import ConfigError
from ..runtime import instrument
from ..runtime.threads.hpx_thread import ThreadPriority

if TYPE_CHECKING:  # pragma: no cover
    from ..config import Config
    from ..runtime.parcel.parcel import Parcel
    from ..runtime.runtime import Runtime

__all__ = [
    "OverloadPolicy",
    "CircuitBreaker",
    "PhiAccrualDetector",
    "OverloadController",
]

_LN10 = math.log(10.0)


@dataclass(frozen=True)
class OverloadPolicy:
    """Admission-control parameters; ``from_config`` fills the fields
    that have an ``overload.*`` key, the rest keep these defaults."""

    credits: int = 32
    max_queue_depth: int = 128
    defer_base_s: float = 1e-4
    defer_max: int = 3
    breaker_threshold: int = 3
    breaker_reset_s: float = 1e-3
    phi_window: int = 32
    phi_throttle: float = 3.0
    phi_suspect: float = 8.0
    phi_confirm: float = 16.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.phi_throttle <= self.phi_suspect <= self.phi_confirm:
            raise ConfigError(
                "phi thresholds must satisfy 0 < throttle <= suspect <= confirm"
            )

    @classmethod
    def from_config(cls, config: "Config") -> "OverloadPolicy":
        return cls(
            credits=config.get_int("overload.credits"),
            defer_base_s=config.get_float("overload.defer_base_s"),
            defer_max=config.get_int("overload.defer_max"),
            seed=config.get_int("seed"),
        )


class CircuitBreaker:
    """Closed -> open -> half-open breaker for one destination locality.

    ``record_failure`` counts *consecutive* dead-letters; at
    ``threshold`` the breaker opens and :meth:`allow` rejects every send
    until ``reset_s`` virtual seconds pass, at which point exactly one
    probe is let through (half-open).  The probe's ack closes the
    breaker; another failure re-opens it with a fresh reset window.
    """

    __slots__ = ("threshold", "reset_s", "state", "failures", "opened_at", "probing")

    def __init__(self, threshold: int, reset_s: float) -> None:
        self.threshold = threshold
        self.reset_s = reset_s
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0
        self.probing = False

    def allow(self, now: float) -> str:
        """Gate one send: ``"send"``, ``"probe"``, or ``"reject"``."""
        if self.state == "closed":
            return "send"
        if self.state == "open" and now >= self.opened_at + self.reset_s:
            self.state = "half-open"
            self.probing = True
            return "probe"
        if self.state == "half-open" and not self.probing:
            self.probing = True
            return "probe"
        return "reject"

    def retry_after(self, now: float) -> float:
        """Virtual seconds until the next probe window (retry hint)."""
        return max(0.0, self.opened_at + self.reset_s - now)

    def record_success(self) -> bool:
        """An ack arrived; True when this transition closed the breaker."""
        self.failures = 0
        self.probing = False
        if self.state != "closed":
            self.state = "closed"
            return True
        return False

    def record_failure(self, now: float) -> bool:
        """A dead-letter occurred; True when this transition opened it."""
        self.failures += 1
        self.probing = False
        if self.state == "half-open" or (
            self.state == "closed" and self.failures >= self.threshold
        ):
            self.state = "open"
            self.opened_at = now
            return True
        return False

    def force_open(self, now: float) -> bool:
        """Open regardless of the failure count (phi escalation)."""
        if self.state == "open":
            return False
        self.state = "open"
        self.opened_at = now
        self.probing = False
        return True


class PhiAccrualDetector:
    """Suspicion levels from per-peer ack inter-arrival windows.

    Heartbeats are handler-completion acks on the virtual clock.  With a
    window of inter-arrival samples of mean ``m`` and ``elapsed``
    virtual seconds since the last ack, the suspicion is
    ``phi = elapsed / (m * ln 10)`` -- the exponential-distribution
    variant of Hayashibara's phi-accrual detector, i.e.
    ``-log10 P(next ack still pending)``.  ``phi = 1`` means the silence
    is 10x less likely than expected, ``phi = 2`` 100x, and so on.
    """

    __slots__ = ("window", "_samples", "_last")

    def __init__(self, window: int) -> None:
        self.window = window
        self._samples: Dict[int, Deque[float]] = {}
        self._last: Dict[int, float] = {}

    def heartbeat(self, peer: int, now: float) -> None:
        """Record one ack from ``peer`` at virtual time ``now``."""
        last = self._last.get(peer)
        if last is None:
            self._last[peer] = now
            return
        if now <= last:
            return
        self._samples.setdefault(peer, deque(maxlen=self.window)).append(now - last)
        self._last[peer] = now

    def phi(self, peer: int, now: float) -> float:
        """Current suspicion of ``peer``; 0.0 before two acks arrived."""
        samples = self._samples.get(peer)
        if not samples:
            return 0.0
        elapsed = now - self._last[peer]
        if elapsed <= 0.0:
            return 0.0
        mean = max(sum(samples) / len(samples), 1e-12)
        return elapsed / (mean * _LN10)

    def suspicion(self, now: float) -> float:
        """Max suspicion across all peers (the ``/phi`` perfcounter)."""
        return max((self.phi(peer, now) for peer in self._last), default=0.0)


class OverloadController:
    """Per-runtime admission, credit, breaker, and phi bookkeeping.

    Installed on the parcelport as ``port.overload`` when
    ``overload.enabled`` is set; :meth:`admit` gates every first-time
    ``send`` (retransmissions and credit-holding resumes bypass it), and
    the runtime routes handler completions to :meth:`on_ack` and
    dead-letters to :meth:`on_parcel_failed`.
    """

    def __init__(self, runtime: "Runtime", policy: OverloadPolicy | None = None) -> None:
        self._runtime = runtime
        self.policy = policy or OverloadPolicy.from_config(runtime.config)
        self.phi = PhiAccrualDetector(self.policy.phi_window)
        self._credits: Dict[int, int] = {}
        self._inflight: Dict[int, int] = {}
        self._stalled: Dict[int, Deque["Parcel"]] = {}
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._probe_ids: Set[int] = set()
        #: Stable parcel -> jitter-sequence mapping (FaultInjector idiom):
        #: the deferral backoff is a pure function of (seed, seq, deferral).
        self._defer_seq: Dict[int, int] = {}
        # Decision counters (perfcounter sources).
        self.parcels_shed = 0
        self.parcels_deferred = 0
        self.parcels_completed = 0
        self.credit_stalls = 0
        self.credit_resumes = 0
        self.breaker_opens = 0
        self.breaker_closes = 0
        self.breaker_probes = 0

    # Introspection -------------------------------------------------------------
    def stalled_count(self, destination: int | None = None) -> int:
        """Parcels currently parked awaiting a send credit."""
        if destination is not None:
            queue = self._stalled.get(destination)
            return len(queue) if queue else 0
        return sum(len(queue) for queue in self._stalled.values())

    def inflight(self, destination: int) -> int:
        return self._inflight.get(destination, 0)

    def breaker(self, destination: int) -> CircuitBreaker:
        breaker = self._breakers.get(destination)
        if breaker is None:
            breaker = CircuitBreaker(
                self.policy.breaker_threshold, self.policy.breaker_reset_s
            )
            self._breakers[destination] = breaker
        return breaker

    def _ceiling(self, destination: int, now: float) -> int:
        """Credit ceiling, halved while phi says ``throttle`` (or worse)."""
        base = self.policy.credits
        if self.phi.phi(destination, now) >= self.policy.phi_throttle:
            return max(1, base // 2)
        return base

    def _emit(self, kind: str, now: float, parcel: "Parcel | None", **args: object) -> None:
        if instrument.enabled and (probe := instrument.probe) is not None:
            probe.event(
                kind,
                now,
                parcel_id=None if parcel is None else parcel.parcel_id,
                args=args,
            )

    # Admission -----------------------------------------------------------------
    def admit(self, parcel: "Parcel") -> tuple[str, tuple[str, float] | None]:
        """Gate one first-time send.

        Returns ``("send", None)``, ``("stall", None)``, ``("defer",
        None)``, or ``("shed", (reason, retry_after))``.  Stalled parcels
        are parked here and resumed on ack; deferred parcels are
        re-submitted by the runtime's resume scheduler.
        """
        destination = self._runtime._destination_of(parcel)
        if destination == parcel.source_locality:
            return ("send", None)  # no wire, no flow control
        now = parcel.send_time

        # Phi escalation first: a silent peer we are owed acks by may be
        # throttled, suspected (breaker opens), or confirmed dead.
        if self._inflight.get(destination, 0) > 0:
            phi = self.phi.phi(destination, now)
            if phi >= self.policy.phi_confirm:
                port = self._runtime.parcelport
                if destination not in port.suspected_dead:
                    port.suspected_dead.add(destination)
                    self._emit("phi_confirm", now, parcel, dest=destination, phi=phi)
                self._open_breaker(destination, now, f"phi={phi:.2f} confirmed dead")
            elif phi >= self.policy.phi_suspect:
                self._open_breaker(destination, now, f"phi={phi:.2f} suspect")

        breaker = self.breaker(destination)
        gate = breaker.allow(now)
        if gate == "reject":
            retry_after = breaker.retry_after(now)
            self.parcels_shed += 1
            self._emit("parcel_shed", now, parcel, dest=destination, reason="breaker-open")
            return ("shed", (f"circuit open to locality {destination}", retry_after))
        if gate == "probe":
            self.breaker_probes += 1
            self._probe_ids.add(parcel.parcel_id)
            self._emit("breaker_probe", now, parcel, dest=destination)
            return ("send", None)  # probes bypass credits (none may be left)

        inflight = self._inflight.get(destination, 0)
        if parcel.priority is ThreadPriority.LOW:
            # Sheddable background traffic: defer (bounded times) instead
            # of stalling, so nothing about a LOW storm queues unboundedly.
            depth = self._runtime.localities[destination].pool.pending()
            credits = self._credits.setdefault(destination, self.policy.credits)
            pressed = depth >= self.policy.max_queue_depth or credits <= 0
            if pressed:
                delay = self._defer_delay(parcel)
                if parcel.deferrals >= self.policy.defer_max:
                    self.parcels_shed += 1
                    self._emit(
                        "parcel_shed", now, parcel, dest=destination, reason="overloaded"
                    )
                    return (
                        "shed",
                        (
                            f"locality {destination} overloaded (queue depth "
                            f"{depth}, {inflight} in flight) after "
                            f"{parcel.deferrals} deferral(s)",
                            delay,
                        ),
                    )
                parcel.deferrals += 1
                self.parcels_deferred += 1
                self._emit(
                    "parcel_deferred", now, parcel, dest=destination, until=now + delay
                )
                self._runtime._schedule_parcel_resume(parcel, now + delay)
                return ("defer", None)
        else:
            credits = self._credits.setdefault(destination, self.policy.credits)
            if credits <= 0:
                self._stalled.setdefault(destination, deque()).append(parcel)
                self.credit_stalls += 1
                self._emit("credit_stall", now, parcel, dest=destination)
                return ("stall", None)

        self._credits[destination] = self._credits[destination] - 1
        self._inflight[destination] = inflight + 1
        parcel.holds_credit = True
        return ("send", None)

    def _defer_delay(self, parcel: "Parcel") -> float:
        """Seeded, jittered exponential deferral backoff (deterministic)."""
        seq = self._defer_seq.setdefault(parcel.parcel_id, len(self._defer_seq))
        rng = random.Random(f"{self.policy.seed}:defer:{seq}:{parcel.deferrals}")
        base = self.policy.defer_base_s * (2.0 ** parcel.deferrals)
        return base * (0.75 + 0.5 * rng.random())

    # Completion / failure feedback ---------------------------------------------
    def on_ack(self, parcel: "Parcel", destination: int, now: float) -> None:
        """Handler completion at ``destination``: heartbeat + credit return."""
        if destination == parcel.source_locality:
            return
        self.phi.heartbeat(destination, now)
        breaker = self._breakers.get(destination)
        if breaker is not None and breaker.record_success():
            self.breaker_closes += 1
            self._emit("breaker_close", now, parcel, dest=destination)
            # The probe proved the peer alive; withdraw the suspicion the
            # breaker (or phi) escalated.
            self._runtime.parcelport.suspected_dead.discard(destination)
        if parcel.holds_credit:
            parcel.holds_credit = False
            self.parcels_completed += 1
            self._release(destination, now)
        elif parcel.parcel_id in self._probe_ids:
            self._probe_ids.discard(parcel.parcel_id)
            self.parcels_completed += 1

    def on_parcel_failed(self, parcel: "Parcel", now: float) -> None:
        """A parcel was dead-lettered (retries exhausted): breaker input."""
        destination = parcel.unreachable_destination
        if destination is None:
            destination = self._runtime._destination_of(parcel)
        if parcel.holds_credit:
            parcel.holds_credit = False
            self._release(destination, now)
        self._probe_ids.discard(parcel.parcel_id)
        if self.breaker(destination).record_failure(now):
            self._opened(destination, now)

    def _open_breaker(self, destination: int, now: float, reason: str) -> None:
        if self.breaker(destination).force_open(now):
            self._opened(destination, now, reason)

    def _opened(self, destination: int, now: float, reason: str = "failures") -> None:
        self.breaker_opens += 1
        self._emit("breaker_open", now, None, dest=destination, reason=reason)
        # Breaker state *is* the escalation the recovery drivers watch.
        self._runtime.parcelport.suspected_dead.add(destination)
        self._shed_stalled(
            destination,
            f"circuit opened to locality {destination} while awaiting credit",
            retry_after=self.policy.breaker_reset_s,
        )

    def _release(self, destination: int, now: float) -> None:
        """Return one credit; hand it to the oldest stalled parcel if any."""
        inflight = self._inflight.get(destination, 0)
        if inflight > 0:
            self._inflight[destination] = inflight - 1
        stalled = self._stalled.get(destination)
        if stalled:
            resumed = stalled.popleft()
            resumed.holds_credit = True
            self._inflight[destination] = self._inflight.get(destination, 0) + 1
            self.credit_resumes += 1
            self._emit("credit_resume", now, resumed, dest=destination)
            self._runtime._schedule_parcel_resume(resumed, now)
            return
        ceiling = self._ceiling(destination, now)
        current = self._credits.get(destination, ceiling)
        if current < ceiling:
            self._credits[destination] = current + 1

    def shed_all_stalled(self, reason: str) -> int:
        """Shed every stalled parcel (stall-with-no-progress escape hatch);
        returns how many were shed."""
        total = 0
        for destination in list(self._stalled):
            total += self._shed_stalled(destination, reason, retry_after=0.0)
        return total

    def _shed_stalled(self, destination: int, reason: str, retry_after: float) -> int:
        stalled = self._stalled.get(destination)
        count = 0
        port = self._runtime.parcelport
        while stalled:
            parcel = stalled.popleft()
            self.parcels_shed += 1
            count += 1
            self._emit(
                "parcel_shed", parcel.send_time, parcel,
                dest=destination, reason="stall-purged",
            )
            port._shed(parcel, reason, retry_after=retry_after)
        return count
