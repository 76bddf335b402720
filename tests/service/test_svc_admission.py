"""Admission control: quotas, backlog bound, per-tenant breakers."""

import pytest

from repro.errors import ConfigError, JobShedError
from repro.service import AdmissionControl, ManualClock, TenantQuota


@pytest.fixture()
def clock():
    return ManualClock()


def test_admits_under_all_limits(clock):
    control = AdmissionControl(clock, max_backlog=2)
    control.set_quota("t", TenantQuota(max_pending=2))
    # One below each limit is admitted (no JobShedError); admission
    # keeps no tally of its own, the service counts sheds.
    control.check("t", tenant_pending=1, total_backlog=1)


def test_tenant_quota_sheds_with_retry_after(clock):
    control = AdmissionControl(clock)
    control.set_quota("t", TenantQuota(max_pending=2))
    with pytest.raises(JobShedError, match="backlog quota") as info:
        control.check("t", tenant_pending=2, total_backlog=2)
    assert info.value.retry_after > 0
    # Another tenant is unaffected by t's quota.
    control.check("u", tenant_pending=2, total_backlog=2)


def test_global_backlog_bound(clock):
    control = AdmissionControl(clock, max_backlog=10)
    with pytest.raises(JobShedError, match="backlog bound"):
        control.check("t", tenant_pending=0, total_backlog=10)


def test_breaker_opens_on_consecutive_failures_and_recovers(clock):
    control = AdmissionControl(clock, breaker_threshold=3, breaker_reset_seconds=5.0)
    for _ in range(3):
        control.record_outcome("t", failed=True)
    with pytest.raises(JobShedError, match="circuit breaker") as info:
        control.check("t", tenant_pending=0, total_backlog=0)
    assert 0 < info.value.retry_after <= 5.0
    # Reset window passes: half-open lets a probe submission through.
    clock.advance(5.0)
    control.check("t", tenant_pending=0, total_backlog=0)
    control.record_outcome("t", failed=False)
    control.check("t", tenant_pending=0, total_backlog=0)


def test_breaker_is_per_tenant(clock):
    control = AdmissionControl(clock, breaker_threshold=1)
    control.record_outcome("bad", failed=True)
    with pytest.raises(JobShedError):
        control.check("bad", tenant_pending=0, total_backlog=0)
    control.check("good", tenant_pending=0, total_backlog=0)


def test_successes_reset_the_failure_streak(clock):
    control = AdmissionControl(clock, breaker_threshold=2)
    control.record_outcome("t", failed=True)
    control.record_outcome("t", failed=False)
    control.record_outcome("t", failed=True)
    control.check("t", tenant_pending=0, total_backlog=0)  # streak never hit 2


def test_quota_validation():
    with pytest.raises(ConfigError):
        TenantQuota(weight=0.0)
    with pytest.raises(ConfigError):
        TenantQuota(max_pending=0)
    with pytest.raises(ConfigError):
        TenantQuota(max_active=0)
    with pytest.raises(ConfigError):
        AdmissionControl(ManualClock(), max_backlog=0)
