"""Property: the job store's counts are the jobs, live and after replay.

``JobStore`` keeps per-tenant counts by state, a per-tenant retry count,
the set of active (claimed or running) jobs and the dedupe index in the
one apply step that both journal replay and live mutations run; the
service admits, schedules, harvests leases and reports its durable
counters from them.  For any sequence of client and worker calls --
submits with fresh, reused or no dedupe keys, claims, starts, completes,
failed attempts, cancels, renewals, clock advances with a lease harvest,
and close-and-reopen -- every count must equal a brute-force recount
over ``store.jobs()`` (the inline scan the service used to run on every
submit and claim), and the durable ``/jobs`` counters must read the same
after a reopen as before it.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.errors import JobShedError, JobStateError
from repro.service import (
    JobService,
    JobState,
    ManualClock,
    ServicePolicy,
    TenantQuota,
    read_journal,
)

TENANTS = ("a", "b")
WORKERS = ("w0", "w1")
DURABLE = ("submitted", "completed", "failed", "cancelled", "retried")
POLICY = ServicePolicy(
    lease_seconds=5.0,
    max_attempts=2,
    retry_base_seconds=1.0,
    retry_cap_seconds=2.0,
    max_backlog=6,
    sync_journal=False,
)

_job = st.integers(min_value=0, max_value=20)
_worker = st.integers(min_value=0, max_value=len(WORKERS))  # 0 = the lease owner
_OPS = st.one_of(
    st.tuples(
        st.just("submit"),
        st.sampled_from(TENANTS),
        st.one_of(st.none(), st.just("new"), st.integers(min_value=0, max_value=5)),
    ),
    st.tuples(st.just("claim"), st.sampled_from(WORKERS)),
    *(st.tuples(st.just(kind), _job, _worker) for kind in ("start", "complete", "fail", "renew")),
    st.tuples(st.just("cancel"), _job),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 1.0, 3.0, 6.0])),
    st.tuples(st.just("reopen")),
)


def _open(root, clock):
    service = JobService(root, clock=clock, policy=POLICY)
    service.set_quota("a", TenantQuota(max_pending=3, max_active=1))
    return service


def _recount(service):
    """The reference: every count the store keeps, by a full scan."""
    jobs = service.store.jobs()
    records, _torn = read_journal(service.store.path)
    by_tenant = {}
    for job in jobs:
        tally = by_tenant.setdefault(job.tenant, {"submitted": 0, "retried": 0})
        tally["submitted"] += 1
        tally[job.state.value] = tally.get(job.state.value, 0) + 1
    for record in records:
        if record["op"] == "transition" and record["to"] == "pending":
            if "not_before" in record["set"]:
                tenant = service.store.get(record["job_id"]).tenant
                by_tenant[tenant]["retried"] += 1
    active = [j.job_id for j in jobs if j.state in (JobState.CLAIMED, JobState.RUNNING)]
    return jobs, by_tenant, active


def _check_counts(service):
    store = service.store
    jobs, by_tenant, active = _recount(service)
    assert set(store.tallies) == set(by_tenant)
    for tenant, expected in by_tenant.items():
        kept = {key: n for key, n in store.tallies[tenant].items() if n}
        assert kept == {key: n for key, n in expected.items() if n}
        open_jobs = [j for j in jobs if j.tenant == tenant and not j.terminal]
        assert store.open_count(tenant) == len(open_jobs)
        assert store.active_count(tenant) == sum(
            1 for j in open_jobs if j.state is not JobState.PENDING
        )
    assert store.open_count() == sum(1 for j in jobs if not j.terminal)
    assert [j.job_id for j in store.active_jobs()] == active
    for job in jobs:
        if job.dedupe_key is not None:
            first = next(
                j for j in jobs if j.tenant == job.tenant and j.dedupe_key == job.dedupe_key
            )
            assert store.find(job.tenant, job.dedupe_key) is first is job


def _durable(service):
    return {
        path: value
        for path, value in service.counters().items()
        if path.rsplit("/", 1)[-1] in DURABLE
    }


def _step(service, clock, op, keys):
    jobs = service.store.jobs()
    kind = op[0]
    if kind == "submit":
        _, tenant, key = op
        if key == "new":
            key = f"k{len(keys)}"
            keys.append(key)
        elif isinstance(key, int):
            key = keys[key % len(keys)] if keys else None
        service.submit(tenant, "faulty", {}, dedupe_key=key)
    elif kind == "claim":
        service.claim(op[1])
    elif kind == "advance":
        clock.advance(op[1])
        service.expire_leases()
    elif jobs:
        # Worker calls mostly target a job some worker holds.
        held = [j for j in jobs if j.state in (JobState.CLAIMED, JobState.RUNNING)]
        pool = jobs if kind == "cancel" or not held or op[1] % 4 == 0 else held
        job = pool[op[1] % len(pool)]
        if kind == "cancel":
            service.cancel(job.job_id)
            return
        worker = (job.lease_owner or WORKERS[0]) if op[2] == 0 else WORKERS[op[2] - 1]
        if kind == "start":
            service.start(job.job_id, worker)
        elif kind == "complete":
            service.complete(job.job_id, worker, {"digest": "d"})
        elif kind == "fail":
            service.fail_attempt(job.job_id, worker, "injected")
        else:
            service.renew(job.job_id, worker)


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(_OPS, min_size=4, max_size=40))
def test_store_counts_equal_a_recount_live_and_after_reopen(ops):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "svc"
        clock = ManualClock()
        keys: list[str] = []
        service = _open(root, clock)
        try:
            for op in ops:
                if op[0] == "reopen":
                    before = _durable(service)
                    service.close()
                    service = _open(root, clock)
                    assert _durable(service) == before
                else:
                    try:
                        _step(service, clock, op, keys)
                    except (JobShedError, JobStateError):
                        pass  # refused before anything was journalled
                _check_counts(service)
        finally:
            service.close()
