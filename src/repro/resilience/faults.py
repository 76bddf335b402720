"""Deterministic fault injection for the parcel layer and localities.

The :class:`FaultInjector` is the single source of misfortune in a run:
the parcelport consults it for every transmission (drop, duplicate,
delay-spike, corrupt) and the runtime consults it to decide whether a
locality is down at a given virtual time.  Three properties make faults
usable as a *testbed* rather than chaos:

* **Seeded** -- every decision derives from the injector's seed.
* **Schedule-independent** -- the fate of a transmission is a pure
  function of ``(seed, parcel sequence number, attempt)``, so two runs
  with the same seed inject the *same* fault schedule even if task
  interleaving differs in intermediate states.
* **Virtual-time aware** -- locality failures are windows on the DES
  clock, not wall-clock timers, so they land at exactly the scheduled
  moment in every run.

One injector serves one :class:`~repro.runtime.runtime.Runtime`; build a
fresh injector per run to get the same schedule again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.parcel.parcel import Parcel

__all__ = ["ParcelFate", "LocalityFailure", "FaultInjector"]

#: Fate kinds, in the order probability mass is assigned.
_KINDS = ("drop", "corrupt", "duplicate", "delay")


@dataclass(frozen=True)
class ParcelFate:
    """Outcome of one transmission attempt.

    ``kind`` is one of ``deliver | drop | corrupt | duplicate | delay``;
    ``extra_delay_s`` is the delay spike (for ``delay``) or the stagger
    between the two copies (for ``duplicate``).
    """

    kind: str
    extra_delay_s: float = 0.0

    @property
    def lost(self) -> bool:
        """True when the parcel never usably reaches the destination."""
        return self.kind in ("drop", "corrupt")


_DELIVER = ParcelFate("deliver")


@dataclass(frozen=True)
class LocalityFailure:
    """One scheduled node outage: down during ``[at, until)`` virtual s.

    ``permanent=True`` marks a crash rather than a reboot window: the
    node never comes back (``until`` must stay at the default infinity),
    and recovery requires AGAS re-homing plus a checkpoint restart
    instead of waiting out the window.
    """

    locality_id: int
    at: float
    until: float
    permanent: bool = False

    def __post_init__(self) -> None:
        if self.locality_id < 0:
            raise ConfigError("locality id must be non-negative")
        if self.at < 0 or self.until <= self.at:
            raise ConfigError(
                f"failure window [{self.at}, {self.until}) is not a valid interval"
            )
        if self.permanent and self.until != float("inf"):
            raise ConfigError("a permanent failure cannot have an end time")

    def covers(self, time: float) -> bool:
        return self.at <= time < self.until


class FaultInjector:
    """Seeded source of parcel faults and locality outages."""

    def __init__(
        self,
        seed: int = 0,
        drop_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_spike_s: float = 0.0,
    ) -> None:
        rates = (drop_rate, corrupt_rate, duplicate_rate, delay_rate)
        if any(r < 0 or r > 1 for r in rates):
            raise ConfigError("fault rates must lie in [0, 1]")
        if sum(rates) > 1.0 + 1e-12:
            raise ConfigError("fault rates must sum to at most 1")
        if delay_spike_s < 0:
            raise ConfigError("delay_spike_s must be non-negative")
        if delay_rate > 0 and delay_spike_s == 0:
            raise ConfigError("delay_rate needs a positive delay_spike_s")
        self.seed = seed
        self.drop_rate = drop_rate
        self.corrupt_rate = corrupt_rate
        self.duplicate_rate = duplicate_rate
        self.delay_rate = delay_rate
        self.delay_spike_s = delay_spike_s
        self.locality_failures: list[LocalityFailure] = []
        #: Stable per-injector sequence numbers: the i-th *distinct* parcel
        #: this injector ever sees gets sequence i.  Global parcel ids vary
        #: across runs in one process; sequence numbers do not.
        self._sequence: dict[int, int] = {}

    # Locality outages -------------------------------------------------------
    def fail_locality(
        self,
        locality_id: int,
        at: float,
        until: float = float("inf"),
        permanent: bool = False,
    ) -> "FaultInjector":
        """Schedule a node outage; returns self for chaining.

        With ``permanent=True`` the locality crashes at ``at`` and never
        recovers; the resilient drivers detect this (ack-timeout
        escalation in the parcelport) and respond by decommissioning the
        node, re-homing its components, and restarting from the last
        checkpoint epoch rather than waiting for a reboot.
        """
        self.locality_failures.append(
            LocalityFailure(locality_id, at, until, permanent=permanent)
        )
        return self

    def locality_down(self, locality_id: int, time: float) -> bool:
        """Is ``locality_id`` inside an outage window at virtual ``time``?"""
        return any(
            f.locality_id == locality_id and f.covers(time)
            for f in self.locality_failures
        )

    def permanently_down(self, locality_id: int, time: float) -> bool:
        """Has ``locality_id`` suffered a permanent crash by ``time``?"""
        return any(
            f.permanent and f.locality_id == locality_id and f.covers(time)
            for f in self.locality_failures
        )

    @property
    def has_permanent_failures(self) -> bool:
        """Does the schedule contain any permanent crash?"""
        return any(f.permanent for f in self.locality_failures)

    def defer_until_up(self, locality_id: int, time: float) -> float:
        """Earliest virtual time >= ``time`` at which the locality is up.

        Chains through overlapping/adjacent windows so a restart landing
        inside another outage keeps deferring.
        """
        deferred = time
        moved = True
        while moved:
            moved = False
            for f in self.locality_failures:
                if f.locality_id == locality_id and f.covers(deferred):
                    deferred = f.until
                    moved = True
        return deferred

    # Parcel fates -----------------------------------------------------------
    def parcel_fate(self, parcel: "Parcel", attempt: int) -> ParcelFate:
        """Decide the fate of transmission ``attempt`` of ``parcel``.

        Pure in ``(seed, sequence(parcel), attempt)``: re-asking returns
        the same answer, and retries (higher attempts) draw fresh fates.
        """
        seq = self._sequence.setdefault(parcel.parcel_id, len(self._sequence))
        rng = random.Random(f"{self.seed}:{seq}:{attempt}")
        draw = rng.random()
        threshold = 0.0
        for kind, rate in zip(
            _KINDS,
            (self.drop_rate, self.corrupt_rate, self.duplicate_rate, self.delay_rate),
        ):
            threshold += rate
            if draw < threshold:
                if kind == "delay":
                    return ParcelFate("delay", self.delay_spike_s * (0.5 + rng.random()))
                if kind == "duplicate":
                    # The copies arrive staggered by a fraction of a spike
                    # (or back-to-back when no spike scale is configured).
                    return ParcelFate("duplicate", self.delay_spike_s * rng.random())
                return ParcelFate(kind)
        return _DELIVER

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(seed={self.seed}, drop={self.drop_rate}, "
            f"corrupt={self.corrupt_rate}, duplicate={self.duplicate_rate}, "
            f"delay={self.delay_rate}, outages={len(self.locality_failures)})"
        )
