"""Leases (temporal ownership, the job's own two journalled fields) and
the bounded retry budget (the parcel layer's RetryPolicy, held by the
JobService)."""

import pytest

from repro.errors import ConfigError, JobStateError
from repro.resilience import RetryPolicy
from repro.service import (
    JobService,
    JobState,
    Lease,
    ManualClock,
    ServicePolicy,
)

POLICY = ServicePolicy(lease_seconds=10.0, retry_base_seconds=1.0, sync_journal=False)


@pytest.fixture()
def clock():
    return ManualClock()


@pytest.fixture()
def service(tmp_path, clock):
    with JobService(tmp_path / "svc", clock=clock, policy=POLICY) as svc:
        yield svc


def _submit(service, key):
    return service.submit("t", "faulty", {}, dedupe_key=key)[0].job_id


class TestLeases:
    def test_grant_and_holder(self, service):
        job_id = _submit(service, "j1")
        job, lease = service.claim("w1")
        assert lease == Lease("w1", expires_at=10.0)
        assert job.lease == lease
        assert (job.lease_owner, job.lease_expires_at) == ("w1", 10.0)
        assert service.status(job_id)["lease"] == {"owner": "w1", "expires_at": 10.0}

    def test_double_grant_refused_while_live(self, service):
        job_id = _submit(service, "j1")
        service.claim("w1")
        assert service.claim("w2") is None
        with pytest.raises(JobStateError, match="live lease"):
            service.start(job_id, "w2")

    def test_expired_lease_can_be_regranted(self, service, clock):
        _submit(service, "j1")
        service.claim("w1")
        clock.advance(10.0)  # expiry is inclusive: now >= expires_at
        assert service.claim("w2") is None  # harvested into retry backoff
        clock.advance(1.0)
        job, lease = service.claim("w2")
        assert lease.owner == "w2" and job.lease_owner == "w2"

    def test_renew_extends_only_live_own_leases(self, service, clock):
        job_id = _submit(service, "j1")
        service.claim("w1")
        clock.advance(6.0)
        renewed = service.renew(job_id, "w1")
        assert renewed == Lease("w1", expires_at=16.0)
        assert service.store.get(job_id).state is JobState.CLAIMED
        with pytest.raises(JobStateError, match="live lease"):
            service.renew(job_id, "w2")
        clock.advance(11.0)
        with pytest.raises(JobStateError, match="live lease"):
            service.renew(job_id, "w1")

    def test_release_is_owner_scoped(self, service):
        job_id = _submit(service, "j1")
        service.claim("w1")
        service.start(job_id, "w1")
        with pytest.raises(JobStateError, match="live lease"):
            service.complete(job_id, "w2", {})  # foreign release: refused
        assert service.store.get(job_id).lease is not None
        service.complete(job_id, "w1", {})
        assert service.store.get(job_id).lease is None
        assert service.status(job_id)["lease"] is None

    def test_expired_harvests_and_drops(self, service, clock):
        a = _submit(service, "a")
        b = _submit(service, "b")
        service.claim("w1")
        clock.advance(5.0)
        service.claim("w2")
        clock.advance(5.0)  # "a" expired, "b" has 5s left
        assert service.expire_leases() == [a]
        assert service.store.get(a).lease is None
        assert service.store.get(b).lease is not None
        assert service.expire_leases() == []  # harvest is one-shot

    def test_revoke_unconditional(self, service):
        job_id = _submit(service, "j1")
        service.claim("w1")
        cancelled = service.cancel(job_id)
        assert cancelled.lease is None
        with pytest.raises(JobStateError, match="live lease"):
            service.start(job_id, "w1")

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ServicePolicy(lease_seconds=0.0)


class TestRetryBudget:
    def test_capped_exponential_backoff(self):
        budget = RetryPolicy(base_timeout_s=0.5, backoff=2.0, max_timeout_s=3.0)
        assert [budget.timeout(n + 1) for n in range(5)] == [0.5, 1.0, 2.0, 3.0, 3.0]
        # 2.0 ** 1024 overflows a float: the backoff saturates, never raises.
        assert budget.timeout(1025) == budget.timeout(5000) == 3.0

    def test_exhaustion_is_attempt_bounded(self, tmp_path, clock):
        """2000 drives and no more -- through attempt numbers whose
        backoff term overflows, which used to wedge the job in RUNNING
        with its lease already released."""
        policy = ServicePolicy(sync_journal=False)
        with JobService(tmp_path / "svc", clock=clock, policy=policy) as service:
            job, _ = service.submit(
                "t", "faulty", {"fail_attempts": 2000}, max_attempts=2000
            )
            for attempt in range(1, 2001):
                settled = service.run_one("w")
                assert settled.attempts == attempt
                if attempt < 2000:
                    assert settled.state is JobState.PENDING
                    assert settled.not_before - clock.now <= policy.retry_cap_seconds
                    clock.advance(policy.retry_cap_seconds)
            assert settled.state is JobState.FAILED
            assert "2000/2000 attempts" in settled.failure
            assert service.claim("w") is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(base_timeout_s=0.0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(base_timeout_s=2.0, max_timeout_s=1.0)
        with pytest.raises(ConfigError):
            RetryPolicy().timeout(0)
