"""Weighted fair scheduling of pending jobs across tenants.

A single FIFO ready queue lets one chatty tenant starve everyone else.
:class:`FairJobScheduler` instead keeps one FIFO per tenant under stride
scheduling, so over any window each backlogged tenant is served in
proportion to its configured weight, regardless of how deep anyone's
backlog is.

Jobs in retry backoff (``not_before`` in the future) park in a delay
room and only enter their tenant's queue once eligible, so a tenant
cannot burn its fair share on jobs that are not yet runnable.
"""

from __future__ import annotations

from collections import deque
from typing import Container, Optional

from ..errors import ConfigError

__all__ = ["FairJobScheduler"]

#: Virtual-pass units one pop costs a weight-1 tenant.
_STRIDE = 1024.0


class FairJobScheduler:
    """Stride scheduling over per-tenant FIFOs, plus a delay room.

    Every tenant carries a weight; each pop advances the tenant's
    virtual pass by ``_STRIDE / weight`` and :meth:`next_job` always
    serves the non-empty tenant with the smallest pass (ties broken by
    tenant name, so the order is a pure function of the enqueue/pop
    history).  A tenant with weight 2 is therefore served twice as often
    as a weight-1 tenant under sustained backlog, and an idle tenant
    accumulates no credit: when it becomes non-empty again its pass is
    advanced to the current global floor.
    """

    def __init__(self) -> None:
        self._queues: dict[str, deque[str]] = {}
        self._weights: dict[str, float] = {}
        self._passes: dict[str, float] = {}
        # job_id -> (tenant, not_before) for jobs waiting out a backoff.
        self._delayed: dict[str, tuple[str, float]] = {}

    def set_weight(self, tenant: str, weight: float) -> None:
        """Register ``tenant`` (or update its weight).  Weight must be > 0."""
        if weight <= 0:
            raise ConfigError(f"tenant {tenant!r} weight must be positive, got {weight}")
        self._weights[tenant] = weight
        if tenant not in self._queues:
            self._queues[tenant] = deque()
            self._passes[tenant] = self._floor()

    def _floor(self) -> float:
        """Global virtual-pass floor: min pass among backlogged tenants."""
        backlogged = [
            self._passes[tenant] for tenant, q in self._queues.items() if q
        ]
        return min(backlogged, default=0.0)

    def _push(self, tenant: str, job_id: str) -> None:
        if tenant not in self._queues:
            self.set_weight(tenant, 1.0)
        queue = self._queues[tenant]
        if not queue:
            # Re-entering service: no credit accrues while idle.
            self._passes[tenant] = max(self._passes[tenant], self._floor())
        queue.append(job_id)

    def enqueue(self, tenant: str, job_id: str, *, not_before: float, now: float) -> None:
        """Make a pending job schedulable (immediately or after backoff)."""
        if not_before > now:
            self._delayed[job_id] = (tenant, not_before)
        else:
            self._push(tenant, job_id)

    def promote(self, now: float) -> int:
        """Move delay-room jobs whose backoff has elapsed into the queues."""
        ready = sorted(
            job_id
            for job_id, (_, not_before) in self._delayed.items()
            if not_before <= now
        )
        for job_id in ready:
            tenant, _ = self._delayed.pop(job_id)
            self._push(tenant, job_id)
        return len(ready)

    def next_job(
        self, now: float, *, skip_tenants: Container[str] = ()
    ) -> Optional[tuple[str, str]]:
        """Pop ``(tenant, job_id)`` for the fairest eligible tenant.

        ``skip_tenants`` holds tenants currently at their concurrency
        quota; their queued jobs stay put and their virtual pass is not
        charged.  None when every non-empty tenant is skipped.
        """
        self.promote(now)
        best: Optional[str] = None
        best_pass = 0.0
        for tenant in sorted(self._queues):
            if not self._queues[tenant] or tenant in skip_tenants:
                continue
            tenant_pass = self._passes[tenant]
            if best is None or tenant_pass < best_pass:
                best = tenant
                best_pass = tenant_pass
        if best is None:
            return None
        job_id = self._queues[best].popleft()
        self._passes[best] = best_pass + _STRIDE / self._weights[best]
        return (best, job_id)

    def remove(self, tenant: str, job_id: str) -> bool:
        """Drop a job wherever it is queued (cancellation); O(n) on the
        tenant's queue."""
        if job_id in self._delayed:
            del self._delayed[job_id]
            return True
        try:
            self._queues[tenant].remove(job_id)
        except (KeyError, ValueError):
            return False
        return True
