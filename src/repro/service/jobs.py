"""The job state machine and the durable, idempotent job store.

A :class:`Job` moves through a *strict* state machine::

    pending --> claimed --> running --> done
       |           |           |------> failed
       |           |           |------> cancelled
       |           |           |------> pending   (lease expired / retry)
       |           |           '------> running   (lease renewed)
       |           |------> pending               (lease expired)
       |           |------> cancelled | failed
       |           '------> claimed               (lease renewed)
       '--> cancelled

Terminal states (``done``, ``failed``, ``cancelled``) are absorbing:
once a job is terminal, *every* further transition raises
:class:`~repro.errors.JobStateError`.  Combined with journal-then-apply
write ordering this is what makes terminal states exactly-once across
crashes -- a replayed journal can never re-terminate a job.

The :class:`JobStore` journals every mutation *before* applying it in
memory (see :mod:`repro.service.journal`), and rebuilds itself by
replaying the journal on open.  Submission is idempotent: a resubmit
carrying a ``dedupe_key`` the tenant has already used returns the
existing job instead of creating a new one, so a client that crashed
after submitting but before learning its job id can safely retry.

The store is the service's one record of a job.  A lease is the job's
own ``lease_owner``/``lease_expires_at`` (a renewal is a same-state
transition), and the per-tenant counts the service admits, schedules
and reports by are kept by the one apply step that both replay and live
mutations run, so they read the same after a restart.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, NamedTuple, Optional

from ..errors import JobStateError, JournalCorruptError, UnknownJobError
from .clock import Clock
from .journal import Journal, read_journal

__all__ = ["Job", "JobState", "JobStore", "Lease", "TERMINAL_STATES"]


class JobState(str, enum.Enum):
    """Lifecycle states of a job."""

    PENDING = "pending"
    CLAIMED = "claimed"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    def __str__(self) -> str:  # "pending", not "JobState.PENDING"
        return self.value


#: Absorbing states: a job here never transitions again.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)

#: States meaning "a worker owns this job right now".
_ACTIVE_STATES = frozenset({JobState.CLAIMED, JobState.RUNNING})

#: Legal edges of the state machine.  ``claimed/running -> pending`` are
#: the lease-expiry/retry requeues, ``claimed -> claimed`` and ``running
#: -> running`` the lease renewals; everything terminal is absorbing.
_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.PENDING: frozenset({JobState.CLAIMED, JobState.CANCELLED}),
    JobState.CLAIMED: frozenset(
        {JobState.CLAIMED, JobState.RUNNING, JobState.PENDING, JobState.CANCELLED, JobState.FAILED}
    ),
    JobState.RUNNING: frozenset(
        {JobState.RUNNING, JobState.DONE, JobState.FAILED, JobState.PENDING, JobState.CANCELLED}
    ),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
}

#: Job fields a transition record may update alongside the state.
_MUTABLE_FIELDS = frozenset(
    {"attempts", "lease_owner", "lease_expires_at", "not_before", "result", "failure"}
)


class Lease(NamedTuple):
    """One worker's time-bounded claim on a job, read off the job.

    Ownership is *temporal*: a SIGKILLed worker cannot release anything,
    so its job runs again only once the lease silently expires.
    """

    owner: str
    expires_at: float

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


@dataclass
class Job:
    """One durable unit of work owned by a tenant."""

    job_id: str
    tenant: str
    kind: str
    params: dict[str, Any]
    dedupe_key: Optional[str]
    max_attempts: int
    submitted_at: float
    state: JobState = JobState.PENDING
    attempts: int = 0
    updated_at: float = 0.0
    lease_owner: Optional[str] = None
    lease_expires_at: Optional[float] = None
    not_before: float = 0.0
    result: Optional[dict[str, Any]] = None
    failure: Optional[str] = None
    history: list[str] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def lease(self) -> Optional[Lease]:
        if self.lease_owner is None or self.lease_expires_at is None:
            return None
        return Lease(self.lease_owner, self.lease_expires_at)

    def describe(self) -> dict[str, Any]:
        """JSON-safe snapshot (CLI ``status`` / gateway responses)."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "kind": self.kind,
            "params": self.params,
            "dedupe_key": self.dedupe_key,
            "state": self.state.value,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "submitted_at": self.submitted_at,
            "updated_at": self.updated_at,
            "lease_owner": self.lease_owner,
            "lease_expires_at": self.lease_expires_at,
            "not_before": self.not_before,
            "result": self.result,
            "failure": self.failure,
        }


def _dedupe_index_key(tenant: str, dedupe_key: str) -> str:
    return f"{tenant}\x00{dedupe_key}"


class JobStore:
    """Durable map of jobs, rebuilt from the journal on open.

    Write ordering is journal-then-apply: an operation is appended (and
    fsync'd) before the in-memory state changes, so the journal is never
    *behind* what a client was told.  The converse crash window -- the
    append survived but the process died before applying -- is harmless
    because replay re-applies the record.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        clock: Clock,
        sync: bool = True,
    ) -> None:
        self.path = os.fspath(path)
        self._clock = clock
        self._jobs: dict[str, Job] = {}
        self._dedupe: dict[str, str] = {}
        #: Per tenant: jobs by state value, plus ``submitted`` and
        #: ``retried`` (transitions into pending that set ``not_before``).
        self.tallies: dict[str, Counter[str]] = {}
        self._active: set[str] = set()
        self._sequence = 0
        records, torn = read_journal(self.path)
        self.replayed_records = len(records)
        self.torn_tail_dropped = torn
        for index, record in enumerate(records):
            try:
                self._apply(record)
            except (JobStateError, UnknownJobError, KeyError, ValueError) as exc:
                raise JournalCorruptError(
                    f"journal record {index} does not replay: {exc}"
                ) from exc
        self._journal = Journal(self.path, sync=sync)

    # ------------------------------------------------------------------
    # replay / apply

    def _apply(self, record: dict[str, Any]) -> Job:
        op = record["op"]
        if op == "submit":
            job = Job(
                job_id=record["job_id"],
                tenant=record["tenant"],
                kind=record["kind"],
                params=dict(record["params"]),
                dedupe_key=record["dedupe_key"],
                max_attempts=int(record["max_attempts"]),
                submitted_at=float(record["submitted_at"]),
                updated_at=float(record["submitted_at"]),
            )
            if job.job_id in self._jobs:
                raise JobStateError(f"duplicate submit for job {job.job_id!r}")
            self._jobs[job.job_id] = job
            if job.dedupe_key is not None:
                self._dedupe[_dedupe_index_key(job.tenant, job.dedupe_key)] = job.job_id
            tally = self.tallies.setdefault(job.tenant, Counter())
            tally["submitted"] += 1
            tally[JobState.PENDING.value] += 1
            self._sequence += 1
            return job
        if op == "transition":
            job = self._require(record["job_id"])
            target = JobState(record["to"])
            if target not in _TRANSITIONS[job.state]:
                raise JobStateError(
                    f"job {job.job_id!r} cannot move {job.state} -> {target}"
                    + (" (terminal states are exactly-once)" if job.terminal else "")
                )
            updates = record.get("set", {})
            tally = self.tallies[job.tenant]
            tally[job.state.value] -= 1
            tally[target.value] += 1
            if target is JobState.PENDING and "not_before" in updates:
                tally["retried"] += 1
            if target in _ACTIVE_STATES:
                self._active.add(job.job_id)
            else:
                self._active.discard(job.job_id)
            job.state = target
            job.updated_at = float(record["at"])
            job.history.append(target.value)
            for name, value in updates.items():
                if name not in _MUTABLE_FIELDS:
                    raise JobStateError(f"transition may not set field {name!r}")
                setattr(job, name, value)
            return job
        raise JobStateError(f"unknown journal op {op!r}")

    def _require(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(f"no such job: {job_id!r}") from None

    # ------------------------------------------------------------------
    # mutations (journal-then-apply)

    def submit(
        self,
        tenant: str,
        kind: str,
        params: dict[str, Any],
        *,
        dedupe_key: Optional[str] = None,
        max_attempts: int = 3,
    ) -> tuple[Job, bool]:
        """Create a job, or return the existing one for ``dedupe_key``.

        Returns ``(job, created)``; ``created`` is False on an
        idempotent resubmission (nothing is journalled in that case).
        """
        if not tenant:
            raise ValueError("tenant must be non-empty")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if dedupe_key is not None:
            existing = self.find(tenant, dedupe_key)
            if existing is not None:
                return existing, False
        job_id = self._mint_job_id(tenant, kind, params, dedupe_key)
        record = {
            "op": "submit",
            "job_id": job_id,
            "tenant": tenant,
            "kind": kind,
            "params": params,
            "dedupe_key": dedupe_key,
            "max_attempts": max_attempts,
            "submitted_at": self._clock(),
        }
        self._journal.append(record)
        return self._apply(record), True

    def transition(
        self, job_id: str, target: JobState, **updates: Any
    ) -> Job:
        """Journal and apply one state transition.

        ``updates`` may set lease/retry/result fields (see
        ``_MUTABLE_FIELDS``).  Raises :class:`JobStateError` for an
        illegal edge -- including *any* transition out of a terminal
        state -- before anything touches the journal.
        """
        job = self._require(job_id)
        if target not in _TRANSITIONS[job.state]:
            raise JobStateError(
                f"job {job_id!r} cannot move {job.state} -> {target}"
                + (" (terminal states are exactly-once)" if job.terminal else "")
            )
        unknown = set(updates) - _MUTABLE_FIELDS
        if unknown:
            raise JobStateError(f"transition may not set fields {sorted(unknown)}")
        record = {
            "op": "transition",
            "job_id": job_id,
            "to": target.value,
            "at": self._clock(),
            "set": updates,
        }
        self._journal.append(record)
        return self._apply(record)

    # ------------------------------------------------------------------
    # queries

    def get(self, job_id: str) -> Job:
        return self._require(job_id)

    def jobs(
        self,
        *,
        tenant: Optional[str] = None,
        states: Optional[Iterable[JobState]] = None,
    ) -> list[Job]:
        wanted = frozenset(states) if states is not None else None
        out = [
            job
            for job in self._jobs.values()
            if (tenant is None or job.tenant == tenant)
            and (wanted is None or job.state in wanted)
        ]
        out.sort(key=lambda job: job.job_id)
        return out

    def find(self, tenant: str, dedupe_key: str) -> Optional[Job]:
        """The tenant's job submitted under ``dedupe_key``, if any."""
        job_id = self._dedupe.get(_dedupe_index_key(tenant, dedupe_key))
        return None if job_id is None else self._jobs[job_id]

    def open_count(self, tenant: Optional[str] = None) -> int:
        """Non-terminal jobs of ``tenant``, or of every tenant."""
        tallies = self.tallies.values() if tenant is None else [self.tallies.get(tenant, Counter())]
        return sum(
            tally["submitted"] - tally["done"] - tally["failed"] - tally["cancelled"]
            for tally in tallies
        )

    def active_count(self, tenant: str) -> int:
        """The tenant's claimed or running jobs."""
        tally = self.tallies.get(tenant, Counter())
        return tally["claimed"] + tally["running"]

    def active_jobs(self) -> list[Job]:
        """Claimed or running jobs, in job-id order."""
        return [self._jobs[job_id] for job_id in sorted(self._active)]

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job_id: object) -> bool:
        return job_id in self._jobs

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _mint_job_id(
        self,
        tenant: str,
        kind: str,
        params: dict[str, Any],
        dedupe_key: Optional[str],
    ) -> str:
        # Sequence + content hash: replay-stable (the sequence is the
        # count of submit records), unique, and wall-clock free.
        blob = json.dumps(
            [tenant, kind, params, dedupe_key], sort_keys=True, default=str
        ).encode("utf-8")
        digest = hashlib.sha256(blob).hexdigest()[:8]
        return f"job-{self._sequence:06d}-{digest}"
