"""Multi-tenant durable job service (the "millions of users" front door).

``repro.service`` turns the one-shot library workloads (distributed
stencils, micro-benchmarks) into *jobs*: durable, idempotently
submitted, leased to workers, retried from their last checkpoint after
a crash, and scheduled fairly across tenants.  The guarantee is
exactly-once terminal states: every accepted job reaches ``done``,
``failed``, or ``cancelled`` exactly once, even through SIGKILL of the
service process at any point.

Layers (see ``docs/job-service.md``):

* :mod:`~repro.service.journal` -- append-only fsync'd checksummed job
  journal, torn-tail tolerant on replay.
* :mod:`~repro.service.jobs` -- the :class:`Job` state machine and the
  :class:`JobStore`, the one record of a job: its lease is two journalled
  fields, and its per-tenant counts and dedupe index are kept on apply.
* :mod:`~repro.service.scheduler` -- per-tenant quotas and weighted
  fair (stride) scheduling.
* :mod:`~repro.service.admission` -- quota/backlog/breaker admission
  control; rejections always carry ``retry_after``.
* :mod:`~repro.service.executor` -- runs one job attempt inside a
  :class:`~repro.runtime.runtime.Runtime`, checkpointing every epoch so
  a re-claimed job re-drives from its last intact checkpoint.
* :mod:`~repro.service.service` -- :class:`JobService`, tying the
  layers together, with per-tenant ``/jobs{tenant}`` perfcounters and
  trace events.
* :mod:`~repro.service.gateway` -- asyncio HTTP front end; import it from
  there (it is not re-exported, so no other process loads asyncio).
* :mod:`~repro.service.chaos` -- the kill -9 chaos harness CI runs
  nightly.
"""

from .admission import AdmissionControl, TenantQuota
from .clock import ManualClock, wall_clock
from .executor import JobRunner, job_digest
from .jobs import Job, JobState, JobStore, Lease, TERMINAL_STATES
from .journal import Journal, read_journal
from .scheduler import FairJobScheduler
from .service import JobService, ServicePolicy

__all__ = [
    "AdmissionControl",
    "FairJobScheduler",
    "Job",
    "JobRunner",
    "JobService",
    "JobState",
    "JobStore",
    "Journal",
    "Lease",
    "ManualClock",
    "ServicePolicy",
    "TERMINAL_STATES",
    "TenantQuota",
    "job_digest",
    "read_journal",
    "wall_clock",
]
