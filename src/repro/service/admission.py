"""Admission control for job submission: quotas, backlog, breakers.

The service never sheds silently.  Every rejection is a
:class:`~repro.errors.JobShedError` carrying a ``retry_after`` hint, so
a well-behaved client backs off for exactly as long as the service
expects the condition to last:

* **Tenant backlog quota** -- a tenant with ``max_pending`` jobs
  already waiting is refused more, so one tenant cannot monopolise the
  store or the scheduler's memory.
* **Service backlog bound** -- a global cap on non-terminal jobs, the
  job-level analogue of the parcel layer's queue-depth limit.
* **Per-tenant circuit breaker** -- reuses the resilience layer's
  :class:`~repro.resilience.overload.CircuitBreaker`: a tenant whose
  jobs keep failing trips its breaker open and is refused until the
  reset window passes, letting one probe job through half-open.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError, JobShedError
from ..resilience.overload import CircuitBreaker
from .clock import Clock

__all__ = ["AdmissionControl", "TenantQuota"]


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant limits and the tenant's fair-share weight."""

    weight: float = 1.0
    max_pending: int = 256
    max_active: int = 2

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigError("tenant weight must be positive")
        if self.max_pending < 1:
            raise ConfigError("max_pending must be >= 1")
        if self.max_active < 1:
            raise ConfigError("max_active must be >= 1")


class AdmissionControl:
    """Gates submissions; the outcome is admit or JobShedError, never drop."""

    def __init__(
        self,
        clock: Clock,
        *,
        max_backlog: int = 1024,
        breaker_threshold: int = 5,
        breaker_reset_seconds: float = 30.0,
        default_quota: TenantQuota | None = None,
    ) -> None:
        if max_backlog < 1:
            raise ConfigError("max_backlog must be >= 1")
        self._clock = clock
        self.max_backlog = max_backlog
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_seconds = breaker_reset_seconds
        self.default_quota = default_quota or TenantQuota()
        self._quotas: dict[str, TenantQuota] = {}
        self._breakers: dict[str, CircuitBreaker] = {}

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        self._quotas[tenant] = quota

    def quota(self, tenant: str) -> TenantQuota:
        return self._quotas.get(tenant, self.default_quota)

    def breaker(self, tenant: str) -> CircuitBreaker:
        breaker = self._breakers.get(tenant)
        if breaker is None:
            breaker = CircuitBreaker(
                self.breaker_threshold, self.breaker_reset_seconds
            )
            self._breakers[tenant] = breaker
        return breaker

    def check(
        self, tenant: str, *, tenant_pending: int, total_backlog: int
    ) -> None:
        """Admit one submission or raise :class:`JobShedError`.

        ``tenant_pending`` counts the tenant's non-terminal jobs;
        ``total_backlog`` counts everyone's.  Callers pass the store's
        counts, kept by the same apply step that replays the journal, so
        admission reflects the record, not a shadow counter that can drift.
        """
        now = self._clock()
        breaker = self.breaker(tenant)
        verdict = breaker.allow(now)
        if verdict == "reject":
            raise JobShedError(
                f"tenant {tenant!r} circuit breaker is open "
                f"({breaker.failures} consecutive job failures)",
                retry_after=breaker.retry_after(now),
            )
        quota = self.quota(tenant)
        if tenant_pending >= quota.max_pending:
            raise JobShedError(
                f"tenant {tenant!r} backlog quota reached "
                f"({tenant_pending}/{quota.max_pending} jobs pending)",
                retry_after=1.0,
            )
        if total_backlog >= self.max_backlog:
            raise JobShedError(
                f"service backlog bound reached "
                f"({total_backlog}/{self.max_backlog} jobs outstanding)",
                retry_after=1.0,
            )

    def record_outcome(self, tenant: str, *, failed: bool) -> None:
        """Feed job outcomes to the tenant's breaker."""
        breaker = self.breaker(tenant)
        if failed:
            breaker.record_failure(self._clock())
        else:
            breaker.record_success()
