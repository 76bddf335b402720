"""Leases (temporal ownership) and the bounded retry budget (the parcel
layer's RetryPolicy, held by the JobService)."""

import pytest

from repro.errors import ConfigError, JobStateError
from repro.resilience import RetryPolicy
from repro.service import (
    JobService,
    JobState,
    Lease,
    LeaseManager,
    ManualClock,
    ServicePolicy,
)


@pytest.fixture()
def clock():
    return ManualClock()


@pytest.fixture()
def leases(clock):
    return LeaseManager(clock, lease_seconds=10.0)


class TestLeases:
    def test_grant_and_holder(self, leases, clock):
        lease = leases.grant("j1", "w1")
        assert lease == Lease("j1", "w1", granted_at=0.0, expires_at=10.0)
        assert leases.holder("j1") == lease
        assert len(leases) == 1

    def test_double_grant_refused_while_live(self, leases):
        leases.grant("j1", "w1")
        with pytest.raises(JobStateError, match="already leased"):
            leases.grant("j1", "w2")

    def test_expired_lease_can_be_regranted(self, leases, clock):
        leases.grant("j1", "w1")
        clock.advance(10.0)  # expiry is inclusive: now >= expires_at
        lease = leases.grant("j1", "w2")
        assert lease.owner == "w2"

    def test_renew_extends_only_live_own_leases(self, leases, clock):
        leases.grant("j1", "w1")
        clock.advance(6.0)
        renewed = leases.renew("j1", "w1")
        assert renewed.expires_at == 16.0
        assert renewed.granted_at == 0.0  # original grant time preserved
        with pytest.raises(JobStateError, match="holds no lease"):
            leases.renew("j1", "w2")
        clock.advance(11.0)
        with pytest.raises(JobStateError, match="expired"):
            leases.renew("j1", "w1")

    def test_release_is_owner_scoped(self, leases):
        leases.grant("j1", "w1")
        leases.release("j1", "w2")  # foreign release: no-op
        assert leases.holder("j1") is not None
        leases.release("j1", "w1")
        assert leases.holder("j1") is None

    def test_expired_harvests_and_drops(self, leases, clock):
        leases.grant("a", "w1")
        clock.advance(5.0)
        leases.grant("b", "w2")
        clock.advance(5.0)  # "a" expired, "b" has 5s left
        dead = leases.expired()
        assert [lease.job_id for lease in dead] == ["a"]
        assert leases.holder("a") is None
        assert leases.holder("b") is not None
        assert leases.expired() == []  # harvest is one-shot

    def test_revoke_unconditional(self, leases):
        leases.grant("j1", "w1")
        leases.revoke("j1")
        assert leases.holder("j1") is None
        leases.revoke("j1")  # idempotent

    def test_config_validation(self, clock):
        with pytest.raises(ConfigError):
            LeaseManager(clock, lease_seconds=0.0)


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
