"""Time-bounded job leases.

Claiming a job grants a :class:`Lease`: a promise that one worker owns
the job until ``expires_at``.  Ownership is *temporal*, not structural
-- a worker that is SIGKILLed cannot release anything, so the only way
its job ever runs again is that its lease silently expires and the
service requeues the job.  Workers that are merely slow must renew
before expiry; a renewal after expiry is refused, which keeps two
workers from both believing they own the job.

Retries are bounded twice: a job gets at most ``max_attempts`` drives,
and consecutive attempts are separated by capped exponential backoff
(the parcel layer's :class:`~repro.runtime.parcel.parcelport.RetryPolicy`,
held by :class:`~repro.service.service.JobService`) so a crashing
workload cannot hot-loop the service.  When the budget is exhausted the
job is failed *with cause* rather than retried forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError, JobStateError
from .clock import Clock

__all__ = ["Lease", "LeaseManager"]


@dataclass(frozen=True)
class Lease:
    """One worker's time-bounded claim on one job."""

    job_id: str
    owner: str
    granted_at: float
    expires_at: float

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


class LeaseManager:
    """Grants, renews, releases, and harvests expired leases.

    Purely in-memory: durable lease fields live on the job records (the
    store journals ``lease_owner``/``lease_expires_at`` with each
    claim), and recovery rebuilds or discards leases from there.
    """

    def __init__(self, clock: Clock, *, lease_seconds: float) -> None:
        if lease_seconds <= 0:
            raise ConfigError("lease_seconds must be positive")
        self._clock = clock
        self.lease_seconds = lease_seconds
        self._leases: dict[str, Lease] = {}

    def grant(self, job_id: str, owner: str) -> Lease:
        now = self._clock()
        current = self._leases.get(job_id)
        if current is not None and not current.expired(now):
            raise JobStateError(
                f"job {job_id!r} is already leased to {current.owner!r}"
            )
        lease = Lease(
            job_id=job_id,
            owner=owner,
            granted_at=now,
            expires_at=now + self.lease_seconds,
        )
        self._leases[job_id] = lease
        return lease

    def renew(self, job_id: str, owner: str) -> Lease:
        """Extend a live lease; refuses expired or foreign leases."""
        now = self._clock()
        current = self._leases.get(job_id)
        if current is None or current.owner != owner:
            raise JobStateError(f"{owner!r} holds no lease on job {job_id!r}")
        if current.expired(now):
            raise JobStateError(
                f"lease on job {job_id!r} expired at {current.expires_at:.3f}; "
                f"the job may already belong to someone else"
            )
        lease = Lease(
            job_id=job_id,
            owner=owner,
            granted_at=current.granted_at,
            expires_at=now + self.lease_seconds,
        )
        self._leases[job_id] = lease
        return lease

    def release(self, job_id: str, owner: str) -> None:
        current = self._leases.get(job_id)
        if current is not None and current.owner == owner:
            del self._leases[job_id]

    def revoke(self, job_id: str) -> None:
        """Drop any lease unconditionally (recovery / cancellation)."""
        self._leases.pop(job_id, None)

    def holder(self, job_id: str) -> Optional[Lease]:
        return self._leases.get(job_id)

    def expired(self) -> list[Lease]:
        """Harvest (and drop) every lease that has passed its expiry."""
        now = self._clock()
        dead = [lease for lease in self._leases.values() if lease.expired(now)]
        for lease in dead:
            del self._leases[lease.job_id]
        dead.sort(key=lambda lease: lease.job_id)
        return dead

    def __len__(self) -> int:
        return len(self._leases)

