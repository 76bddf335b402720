"""JobService lifecycle: leases, retries, recovery, fairness, counters."""

import pytest

from repro.errors import JobShedError, JobStateError
from repro.service import (
    JobService,
    JobState,
    JobStore,
    ManualClock,
    ServicePolicy,
    TenantQuota,
)

#: Fast-failing policy for deterministic tests (no real stencil work).
FAST = ServicePolicy(
    lease_seconds=10.0,
    max_attempts=3,
    retry_base_seconds=1.0,
    retry_factor=2.0,
    retry_cap_seconds=4.0,
    sync_journal=False,
)


@pytest.fixture()
def clock():
    return ManualClock()


@pytest.fixture()
def service(tmp_path, clock):
    with JobService(tmp_path / "svc", clock=clock, policy=FAST) as svc:
        yield svc


def _submit_faulty(service, tenant="t", fails=0, key=None, **kw):
    job, created = service.submit(
        tenant, "faulty", {"fail_attempts": fails}, dedupe_key=key, **kw
    )
    return job


class TestLifecycle:
    def test_submit_claim_run_complete(self, service):
        job = _submit_faulty(service)
        claimed, lease = service.claim("w1")
        assert claimed.job_id == job.job_id
        assert claimed.state is JobState.CLAIMED
        assert claimed.attempts == 1
        assert lease.owner == "w1" and lease.expires_at == 10.0
        service.start(job.job_id, "w1")
        done = service.complete(job.job_id, "w1", {"digest": "d"})
        assert done.state is JobState.DONE
        assert done.result == {"digest": "d"}
        assert service.counters().get("/jobs{t}/count/completed", 0) == 1

    def test_claim_order_is_fair_across_tenants(self, service):
        service.set_quota("a", TenantQuota(weight=1.0, max_active=8))
        service.set_quota("b", TenantQuota(weight=1.0, max_active=8))
        for i in range(2):
            _submit_faulty(service, "a", key=f"a{i}")
            _submit_faulty(service, "b", key=f"b{i}")
        order = [service.claim(f"w{i}")[0].tenant for i in range(4)]
        assert order == ["a", "b", "a", "b"]

    def test_claim_respects_max_active_quota(self, service):
        service.set_quota("t", TenantQuota(max_active=1))
        _submit_faulty(service, key="one")
        _submit_faulty(service, key="two")
        assert service.claim("w1") is not None
        assert service.claim("w2") is None  # tenant at concurrency cap
        service.start(service.store.jobs(states=[JobState.CLAIMED])[0].job_id, "w1")
        assert service.claim("w2") is None  # still one active job

    def test_foreign_or_stale_workers_cannot_act(self, service, clock):
        job = _submit_faulty(service)
        service.claim("w1")
        with pytest.raises(JobStateError, match="live lease"):
            service.start(job.job_id, "w2")
        clock.advance(11.0)  # w1's lease expires
        with pytest.raises(JobStateError, match="live lease"):
            service.complete(job.job_id, "w1", {})

    def test_cancel_pending_and_claimed(self, service):
        first = _submit_faulty(service, key="first")
        second = _submit_faulty(service, key="second")
        claimed, _ = service.claim("w1")  # FIFO within a tenant
        assert claimed.job_id == first.job_id
        cancelled = service.cancel(second.job_id)  # still pending
        assert cancelled.state is JobState.CANCELLED
        service.cancel(first.job_id)  # claimed: lease revoked with it
        assert service.claim("w2") is None  # nothing left to claim
        with pytest.raises(JobStateError, match="exactly-once"):
            service.cancel(first.job_id)

    def test_run_one_drives_to_done(self, service):
        job = _submit_faulty(service, fails=0)
        settled = service.run_one("w1")
        assert settled.state is JobState.DONE

    def test_shed_submission_carries_retry_after(self, service):
        service.set_quota("t", TenantQuota(max_pending=1))
        _submit_faulty(service, key="fill")
        with pytest.raises(JobShedError) as info:
            _submit_faulty(service, key="over")
        assert info.value.retry_after > 0
        assert service.counters().get("/jobs{t}/count/shed", 0) == 1
        # The shed submission was never journalled.
        assert len(service.store) == 1


class TestRetries:
    def test_failed_attempt_requeues_with_backoff(self, service, clock):
        job = _submit_faulty(service, fails=1)
        settled = service.run_one("w1")  # attempt 1 fails -> backoff
        assert settled.state is JobState.PENDING
        assert settled.not_before == 1.0  # base * factor**0
        assert service.claim("w1") is None  # still in backoff
        clock.advance(1.0)
        settled = service.run_one("w1")  # attempt 2 succeeds
        assert settled.state is JobState.DONE
        assert settled.attempts == 2
        assert service.counters().get("/jobs{t}/count/retried", 0) == 1

    def test_backoff_grows_and_caps(self, service, clock):
        job = _submit_faulty(service, fails=10, max_attempts=4)
        delays = []
        for _ in range(3):
            before = clock.now
            settled = service.run_one("w1")
            assert settled.state is JobState.PENDING
            delays.append(settled.not_before - before)
            clock.advance(settled.not_before - before)
        assert delays == [1.0, 2.0, 4.0]  # capped at retry_cap_seconds

    def test_budget_exhaustion_fails_with_cause(self, service, clock):
        job = _submit_faulty(service, fails=10, max_attempts=2)
        for _ in range(2):
            settled = service.run_one("w1")
            clock.advance(5.0)
        assert settled.state is JobState.FAILED
        assert "injected failure" in settled.failure
        assert "2/2 attempts" in settled.failure
        assert service.counters().get("/jobs{t}/count/failed", 0) == 1
        assert service.claim("w1") is None


class TestLeaseExpiry:
    def test_dead_workers_job_is_reclaimed(self, service, clock, seam_events):
        job = _submit_faulty(service)
        service.claim("dead-worker")
        service.start(job.job_id, "dead-worker")
        assert service.claim("w2") is None  # lease still live
        clock.advance(10.0)  # dead-worker never renews
        # The claim that notices the expiry harvests it and requeues the
        # job with retry backoff; once that elapses it is re-claimable.
        assert service.claim("w2") is None
        assert service.counters().get("/jobs{t}/count/lease-expired", 0) == 1
        clock.advance(1.0)
        reclaimed, lease = service.claim("w2")
        assert reclaimed.job_id == job.job_id
        assert lease.owner == "w2"
        assert reclaimed.attempts == 2
        assert "lease_expired" in seam_events.kinds()

    def test_renewal_keeps_the_lease_alive(self, service, clock):
        job = _submit_faulty(service)
        service.claim("w1")
        for _ in range(3):
            clock.advance(6.0)
            service.renew(job.job_id, "w1")
        assert service.claim("w2") is None  # renewed lease still owns it

    def test_renewal_is_journalled_on_the_job(self, tmp_path, clock):
        """The lease is the job's own two fields: status reports one
        expiry, and a reopened store replays the renewed one."""
        root = tmp_path / "svc"
        with JobService(root, clock=clock, policy=FAST) as svc:
            job = _submit_faulty(svc)
            clock.advance(2.0)
            svc.claim("w1")
            clock.advance(6.0)
            svc.renew(job.job_id, "w1")
            status = svc.status(job.job_id)
            assert status["lease_expires_at"] == status["lease"]["expires_at"] == 18.0
        with JobStore(root / "jobs.journal", clock=clock, sync=False) as store:
            replayed = store.get(job.job_id)
            assert replayed.state is JobState.CLAIMED
            assert replayed.lease == ("w1", 18.0)

    def test_expiry_consumes_retry_budget_to_failure(self, service, clock):
        job = _submit_faulty(service, max_attempts=2)
        for worker in ("w1", "w2"):
            claimed = service.claim(worker)
            if claimed is None:
                clock.advance(5.0)
                claimed = service.claim(worker)
            clock.advance(10.0)  # worker dies every time
        service.expire_leases()
        final = service.store.get(job.job_id)
        assert final.state is JobState.FAILED
        assert "lease expired" in final.failure


class TestRecovery:
    def test_restart_requeues_claimed_and_running(self, tmp_path, clock):
        root = tmp_path / "svc"
        with JobService(root, clock=clock, policy=FAST) as svc:
            svc.set_quota("t", TenantQuota(max_active=8))
            running = _submit_faulty(svc, key="running")
            claimed = _submit_faulty(svc, key="claimed")
            finished = _submit_faulty(svc, key="finished")
            svc.claim("w1")  # FIFO: claims "running"
            svc.start(running.job_id, "w1")
            svc.claim("w2")  # claims "claimed"
            svc.claim("w3")  # claims "finished"
            svc.start(finished.job_id, "w3")
            svc.complete(finished.job_id, "w3", {"digest": "x"})
            fresh = _submit_faulty(svc, key="fresh")

        # SIGKILL-equivalent: the store is simply reopened; no worker
        # survives, no lease manager state carries over.
        with JobService(root, clock=clock, policy=FAST) as svc2:
            assert svc2.recovered_jobs == 3  # running, claimed, fresh
            states = {j.dedupe_key: j.state for j in svc2.store.jobs()}
            assert states["running"] is JobState.PENDING
            assert states["claimed"] is JobState.PENDING
            assert states["finished"] is JobState.DONE  # terminal untouched
            assert states["fresh"] is JobState.PENDING
            assert svc2.counters().get("/jobs{t}/count/requeued", 0) == 2
            # Attempt counts survive: the requeued jobs already burned one.
            by_key = {j.dedupe_key: j for j in svc2.store.jobs()}
            assert by_key["running"].attempts == 1
            assert by_key["claimed"].attempts == 1
            # And everything non-terminal is claimable again.
            drained = svc2.drain("recovery-worker")
            assert drained == 3
            assert all(j.terminal for j in svc2.store.jobs())

    def test_restart_preserves_dedupe_and_never_reterminates(self, tmp_path, clock):
        root = tmp_path / "svc"
        with JobService(root, clock=clock, policy=FAST) as svc:
            original = _submit_faulty(svc, key="k")
            svc.run_one("w1")
        with JobService(root, clock=clock, policy=FAST) as svc2:
            again, created = svc2.submit("t", "faulty", {}, dedupe_key="k")
            assert not created
            assert again.job_id == original.job_id
            assert again.state is JobState.DONE
            with pytest.raises(JobStateError, match="exactly-once"):
                svc2.cancel(original.job_id)
            # Durable counters were rebuilt from the journal.
            assert svc2.counters().get("/jobs{t}/count/submitted", 0) == 1
            assert svc2.counters().get("/jobs{t}/count/completed", 0) == 1

    def test_retried_counter_survives_restart(self, tmp_path, clock):
        """A job that failed once and waits in backoff was retried once,
        live and after a reopen."""
        root = tmp_path / "svc"
        with JobService(root, clock=clock, policy=FAST) as svc:
            _submit_faulty(svc, fails=1)
            assert svc.run_one("w1").state is JobState.PENDING
            live = svc.counters().get("/jobs{t}/count/retried", 0)
        with JobService(root, clock=clock, policy=FAST) as svc2:
            assert live == svc2.counters().get("/jobs{t}/count/retried", 0) == 1


class TestObservability:
    def test_per_tenant_counters_and_events(self, service, clock, seam_events):
        _submit_faulty(service, "alice", key="a")
        job = _submit_faulty(service, "bob", fails=1, key="b")
        service.run_one("w1")  # alice's job -> done
        service.run_one("w1")  # bob's job -> retry backoff
        clock.advance(1.0)
        service.run_one("w1")  # bob's job -> done
        counters = service.counters()
        assert counters["/jobs{alice}/count/submitted"] == 1
        assert counters["/jobs{alice}/count/completed"] == 1
        assert counters["/jobs{bob}/count/retried"] == 1
        assert counters["/jobs{bob}/count/completed"] == 1
        kinds = seam_events.kinds()
        assert kinds.count("job_submitted") == 2
        assert "job_retried" in kinds
        assert kinds.count("job_done") == 2

    def test_transitions_reach_an_installed_probe(self, service, clock, seam_events):
        _submit_faulty(service, key="k")
        [(kind, time, args)] = seam_events.events
        assert kind == "job_submitted"
        assert time == clock()
        assert args["tenant"] == "t"
