"""The durable multi-tenant job service, tying the layers together.

:class:`JobService` owns one service directory (journal + per-job
checkpoint trails) and composes the store, fair scheduler, admission
control, and executor into the lifecycle clients see::

    submit --> pending --> claim (lease) --> running --> done
                  ^            |                 |-----> failed (cause)
                  |            |                 '-----> cancelled
                  '---- lease expiry / retry backoff ----'

Durability invariants (asserted by the chaos suite):

* every state change is journalled before it is visible;
* opening the service after a crash requeues claimed/running jobs --
  their in-process workers cannot have survived the process;
* terminal transitions are exactly-once: replay can never re-terminate
  a job, a resubmit with a used dedupe key returns the original job.

Observability: every tenant gets ``/jobs{tenant}/count/...``
perfcounters (the service-side mirror of the runtime's counter path
grammar) and every lifecycle edge is reported to the installed
:class:`~repro.runtime.instrument.Probe` as an ``event``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Optional

from ..errors import ConfigError, JobShedError, JobStateError
from ..runtime import instrument
from ..runtime.parcel.parcelport import RetryPolicy
from .admission import AdmissionControl, TenantQuota
from .clock import Clock, wall_clock
from .executor import JobRunner
from .jobs import Job, JobState, JobStore, Lease
from .scheduler import FairJobScheduler

__all__ = ["JobService", "ServicePolicy"]

#: Durable counters: ``/jobs{tenant}/count/<name>`` reads the store's
#: tally ``<key>``, so it means the same after a restart.
_DURABLE_COUNTERS = (
    ("submitted", "submitted"),
    ("completed", "done"),
    ("failed", "failed"),
    ("cancelled", "cancelled"),
    ("retried", "retried"),
)


@dataclass(frozen=True)
class ServicePolicy:
    """All the service's tunable knobs in one immutable bundle."""

    lease_seconds: float = 30.0
    max_attempts: int = 3
    retry_base_seconds: float = 0.5
    retry_factor: float = 2.0
    retry_cap_seconds: float = 30.0
    max_backlog: int = 1024
    breaker_threshold: int = 5
    breaker_reset_seconds: float = 30.0
    epoch_steps: int = 10
    keep_epochs: int = 2
    sync_journal: bool = True

    def __post_init__(self) -> None:
        if self.lease_seconds <= 0:
            raise ConfigError("lease_seconds must be positive")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.epoch_steps < 1:
            raise ConfigError("epoch_steps must be >= 1")


class JobService:
    """One durable job service over one service directory."""

    def __init__(
        self,
        root: str | os.PathLike[str],
        *,
        clock: Optional[Clock] = None,
        policy: Optional[ServicePolicy] = None,
    ) -> None:
        self.root = os.fspath(root)
        self.policy = policy or ServicePolicy()
        self._clock: Clock = clock if clock is not None else wall_clock()
        os.makedirs(self.root, exist_ok=True)
        self.store = JobStore(
            os.path.join(self.root, "jobs.journal"),
            clock=self._clock,
            sync=self.policy.sync_journal,
        )
        self.scheduler = FairJobScheduler()
        self.admission = AdmissionControl(
            self._clock,
            max_backlog=self.policy.max_backlog,
            breaker_threshold=self.policy.breaker_threshold,
            breaker_reset_seconds=self.policy.breaker_reset_seconds,
        )
        self.retry = RetryPolicy(
            base_timeout_s=self.policy.retry_base_seconds,
            max_timeout_s=self.policy.retry_cap_seconds,
            backoff=self.policy.retry_factor,
        )
        self.runner = JobRunner(
            os.path.join(self.root, "work"),
            epoch_steps=self.policy.epoch_steps,
            keep_epochs=self.policy.keep_epochs,
        )
        self._counters: dict[str, int] = {}
        self.recovered_jobs = self._recover()

    # ------------------------------------------------------------------
    # observability

    def _bump(self, tenant: str, name: str) -> None:
        path = f"/jobs{{{tenant}}}/count/{name}"
        self._counters[path] = self._counters.get(path, 0) + 1

    def _emit(self, kind: str, tenant: str, job_id: str, **args: Any) -> None:
        if instrument.enabled and (probe := instrument.probe) is not None:
            probe.event(
                kind,
                self._clock(),
                args={"tenant": tenant, "job_id": job_id, **args},
            )

    def counters(self) -> dict[str, int]:
        """All non-zero per-tenant counters, sorted by path: the durable
        ones read from the store, the event ones (``deduped``, ``shed``,
        ``requeued``, ``lease-expired``) counted by this process."""
        out = dict(self._counters)
        for tenant, tally in self.store.tallies.items():
            for name, key in _DURABLE_COUNTERS:
                if tally[key]:
                    out[f"/jobs{{{tenant}}}/count/{name}"] = tally[key]
        return dict(sorted(out.items()))

    # ------------------------------------------------------------------
    # recovery

    def _recover(self) -> int:
        """Requeue every non-terminal job found in the replayed journal.

        The service process just started, so any worker that held a
        lease is gone: ``claimed``/``running`` jobs go straight back to
        ``pending`` (keeping their attempt count and backoff), and
        ``pending`` jobs re-enter the fair queues.
        """
        now = self._clock()
        recovered = 0
        for job in self.store.jobs():
            if job.terminal:
                continue
            if job.state is not JobState.PENDING:  # claimed or running
                self.store.transition(
                    job.job_id,
                    JobState.PENDING,
                    lease_owner=None,
                    lease_expires_at=None,
                )
                self._bump(job.tenant, "requeued")
                self._emit("job_requeued", job.tenant, job.job_id, reason="restart")
            self.scheduler.enqueue(
                job.tenant, job.job_id, not_before=job.not_before, now=now
            )
            recovered += 1
        return recovered

    # ------------------------------------------------------------------
    # client surface

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        self.admission.set_quota(tenant, quota)
        self.scheduler.set_weight(tenant, quota.weight)

    def submit(
        self,
        tenant: str,
        kind: str,
        params: dict[str, Any],
        *,
        dedupe_key: Optional[str] = None,
        max_attempts: Optional[int] = None,
    ) -> tuple[Job, bool]:
        """Admit and durably create a job; idempotent under ``dedupe_key``.

        Returns ``(job, created)``.  A resubmission with a dedupe key
        the tenant already used returns the *original* job (whatever its
        state, including terminal) without consulting admission control
        -- retrying a submit must never be punished as new load.
        Rejections raise :class:`~repro.errors.JobShedError` carrying
        ``retry_after``; nothing is ever dropped silently.
        """
        job = self._submit_dedupe_check(tenant, dedupe_key)
        if job is not None:
            return job, False
        try:
            self.admission.check(
                tenant,
                tenant_pending=self.store.open_count(tenant),
                total_backlog=self.store.open_count(),
            )
        except JobShedError as exc:
            self._bump(tenant, "shed")
            self._emit(
                "job_shed", tenant, "", reason=str(exc), retry_after=exc.retry_after
            )
            raise
        job, created = self.store.submit(
            tenant,
            kind,
            params,
            dedupe_key=dedupe_key,
            max_attempts=max_attempts or self.policy.max_attempts,
        )
        self.scheduler.enqueue(
            tenant, job.job_id, not_before=job.not_before, now=self._clock()
        )
        self._emit("job_submitted", tenant, job.job_id, job_kind=kind)
        return job, created

    def _submit_dedupe_check(
        self, tenant: str, dedupe_key: Optional[str]
    ) -> Optional[Job]:
        job = None if dedupe_key is None else self.store.find(tenant, dedupe_key)
        if job is not None:
            self._bump(tenant, "deduped")
            self._emit("job_deduped", tenant, job.job_id)
        return job

    def status(self, job_id: str) -> dict[str, Any]:
        job = self.store.get(job_id)
        info = job.describe()
        lease = job.lease
        info["lease"] = None if lease is None else lease._asdict()
        return info

    def cancel(self, job_id: str) -> Job:
        """Cancel wherever the job is; terminal jobs refuse (exactly-once)."""
        job = self.store.get(job_id)
        if job.terminal:
            raise JobStateError(
                f"job {job_id!r} is already terminal ({job.state}); "
                f"terminal states are exactly-once"
            )
        self.scheduler.remove(job.tenant, job_id)
        job = self.store.transition(
            job_id, JobState.CANCELLED, lease_owner=None, lease_expires_at=None
        )
        self._emit("job_cancelled", job.tenant, job_id)
        return job

    def list_jobs(
        self, *, tenant: Optional[str] = None, state: Optional[str] = None
    ) -> list[Job]:
        states = None if state is None else [JobState(state)]
        return self.store.jobs(tenant=tenant, states=states)

    # ------------------------------------------------------------------
    # worker surface

    def _tenants_at_capacity(self) -> set[str]:
        return {
            tenant
            for tenant in self.store.tallies
            if self.store.active_count(tenant) >= self.admission.quota(tenant).max_active
        }

    def claim(self, worker: str) -> Optional[tuple[Job, Lease]]:
        """Hand the fairest eligible pending job to ``worker``.

        Expired leases are harvested first, so a dead worker's job can
        be re-claimed by the very call that notices it.  Returns None
        when nothing is runnable right now (everything terminal, leased,
        in backoff, or its tenant at quota).
        """
        self.expire_leases()
        picked = self.scheduler.next_job(
            self._clock(), skip_tenants=self._tenants_at_capacity()
        )
        if picked is None:
            return None
        tenant, job_id = picked
        job = self.store.get(job_id)
        expires_at = self._clock() + self.policy.lease_seconds
        job = self.store.transition(
            job_id,
            JobState.CLAIMED,
            attempts=job.attempts + 1,
            lease_owner=worker,
            lease_expires_at=expires_at,
        )
        self._emit("job_claimed", tenant, job_id, worker=worker, attempt=job.attempts)
        return job, Lease(worker, expires_at)

    def _check_owner(self, job_id: str, worker: str) -> Job:
        job = self.store.get(job_id)
        lease = job.lease
        if lease is None or lease.owner != worker or lease.expired(self._clock()):
            raise JobStateError(
                f"{worker!r} does not hold a live lease on job {job_id!r}"
            )
        return job

    def start(self, job_id: str, worker: str) -> Job:
        if self._check_owner(job_id, worker).state is JobState.RUNNING:
            raise JobStateError(f"job {job_id!r} is already running")
        job = self.store.transition(job_id, JobState.RUNNING)
        self._emit("job_started", job.tenant, job_id, worker=worker)
        return job

    def renew(self, job_id: str, worker: str) -> Lease:
        """Extend a live lease: a journalled same-state transition."""
        job = self._check_owner(job_id, worker)
        expires_at = self._clock() + self.policy.lease_seconds
        self.store.transition(job_id, job.state, lease_expires_at=expires_at)
        return Lease(worker, expires_at)

    def complete(self, job_id: str, worker: str, result: dict[str, Any]) -> Job:
        self._check_owner(job_id, worker)
        job = self.store.transition(
            job_id,
            JobState.DONE,
            result=result,
            lease_owner=None,
            lease_expires_at=None,
        )
        self.admission.record_outcome(job.tenant, failed=False)
        self.runner.cleanup(job_id)
        self._emit("job_done", job.tenant, job_id, worker=worker)
        return job

    def fail_attempt(self, job_id: str, worker: str, cause: str) -> Job:
        """One attempt failed: retry with backoff, or fail with cause."""
        return self._retry_or_fail(self._check_owner(job_id, worker), cause)

    def _retry_or_fail(self, job: Job, cause: str) -> Job:
        if job.attempts >= job.max_attempts:
            job = self.store.transition(
                job.job_id,
                JobState.FAILED,
                failure=(
                    f"{cause} (retry budget exhausted after "
                    f"{job.attempts}/{job.max_attempts} attempts)"
                ),
                lease_owner=None,
                lease_expires_at=None,
            )
            self.admission.record_outcome(job.tenant, failed=True)
            self.runner.cleanup(job.job_id)
            self._emit("job_failed", job.tenant, job.job_id, cause=cause)
            return job
        delay = self.retry.timeout(job.attempts)
        not_before = self._clock() + delay
        job = self.store.transition(
            job.job_id,
            JobState.PENDING,
            not_before=not_before,
            lease_owner=None,
            lease_expires_at=None,
        )
        self.scheduler.enqueue(
            job.tenant, job.job_id, not_before=not_before, now=self._clock()
        )
        self._emit(
            "job_retried", job.tenant, job.job_id, cause=cause, backoff=delay
        )
        return job

    def expire_leases(self) -> list[str]:
        """Harvest expired leases (of the active jobs only); requeue or
        fail their jobs, in job-id order."""
        now = self._clock()
        expired = []
        for job in self.store.active_jobs():
            lease = job.lease
            if lease is None or not lease.expired(now):
                continue
            self._bump(job.tenant, "lease-expired")
            self._emit(
                "lease_expired", job.tenant, job.job_id, worker=lease.owner
            )
            self._retry_or_fail(
                job, f"lease expired (worker {lease.owner!r} presumed dead)"
            )
            expired.append(job.job_id)
        return expired

    # ------------------------------------------------------------------
    # in-process worker loop (CLI `repro jobs work`, tests, chaos)

    def run_one(self, worker: str) -> Optional[Job]:
        """Claim, drive, and settle a single job; None when idle."""
        claimed = self.claim(worker)
        if claimed is None:
            return None
        job, _lease = claimed
        self.start(job.job_id, worker)
        try:
            result = self.runner.run(self.store.get(job.job_id))
        except Exception as exc:  # noqa: BLE001 - the workload is arbitrary
            return self.fail_attempt(job.job_id, worker, f"{type(exc).__name__}: {exc}")
        return self.complete(job.job_id, worker, result)

    def drain(self, worker: str, *, max_jobs: Optional[int] = None) -> int:
        """Run jobs until nothing is claimable; returns jobs settled."""
        settled = 0
        while max_jobs is None or settled < max_jobs:
            if self.run_one(worker) is None:
                break
            settled += 1
        return settled

    # ------------------------------------------------------------------

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
