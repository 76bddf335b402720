"""Unit tests for overload protection: breakers, phi, credits, shedding."""

import math

import pytest

from repro.config import Config
from repro.errors import ConfigError, ParcelDeadLetterError, ParcelShedError
from repro.resilience import (
    CircuitBreaker,
    FaultInjector,
    OverloadPolicy,
    PhiAccrualDetector,
)
from repro.runtime import context as ctx
from repro.runtime import perfcounters
from repro.runtime.parcel import LoopbackParcelport, Parcel
from repro.runtime.parcel.parcelport import RetryPolicy
from repro.runtime.runtime import Runtime
from repro.runtime.threads.hpx_thread import ThreadPriority
from repro.observability.tracer import Tracer

# Circuit breaker state machine ------------------------------------------------


def test_breaker_opens_after_consecutive_failures():
    breaker = CircuitBreaker(threshold=3, reset_s=1.0)
    assert breaker.allow(0.0) == "send"
    assert not breaker.record_failure(0.0)
    assert not breaker.record_failure(0.0)
    assert breaker.state == "closed"
    assert breaker.record_failure(0.0)  # third consecutive: opens
    assert breaker.state == "open"
    assert breaker.allow(0.5) == "reject"
    assert breaker.retry_after(0.5) == pytest.approx(0.5)


def test_breaker_success_resets_consecutive_count():
    breaker = CircuitBreaker(threshold=2, reset_s=1.0)
    breaker.record_failure(0.0)
    breaker.record_success()
    breaker.record_failure(0.0)  # not consecutive anymore
    assert breaker.state == "closed"


def test_breaker_half_open_probe_then_close():
    breaker = CircuitBreaker(threshold=1, reset_s=1.0)
    assert breaker.record_failure(0.0)
    assert breaker.allow(0.5) == "reject"
    assert breaker.allow(1.0) == "probe"  # reset window elapsed: half-open
    assert breaker.state == "half-open"
    assert breaker.allow(1.0) == "reject"  # one probe at a time
    assert breaker.record_success()  # probe acked: closed again
    assert breaker.state == "closed"
    assert breaker.allow(1.1) == "send"


def test_breaker_half_open_failure_reopens():
    breaker = CircuitBreaker(threshold=1, reset_s=1.0)
    breaker.record_failure(0.0)
    assert breaker.allow(1.0) == "probe"
    assert breaker.record_failure(1.0)  # probe lost: straight back to open
    assert breaker.state == "open"
    assert breaker.retry_after(1.0) == pytest.approx(1.0)


def test_breaker_force_open_is_idempotent():
    breaker = CircuitBreaker(threshold=5, reset_s=1.0)
    assert breaker.force_open(2.0)
    assert not breaker.force_open(3.0)  # already open: no second transition
    assert breaker.state == "open"
    assert breaker.opened_at == 2.0


def test_breaker_duplicated_probe_ack_closes_exactly_once():
    """A retransmitted ack of the half-open probe must not report a second
    close transition or corrupt the consecutive-failure count."""
    breaker = CircuitBreaker(threshold=1, reset_s=1.0)
    breaker.record_failure(0.0)
    assert breaker.allow(1.0) == "probe"
    assert breaker.record_success()  # probe acked: the one close transition
    assert not breaker.record_success()  # duplicate ack: no second transition
    assert not breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.failures == 0
    assert not breaker.probing
    assert breaker.allow(1.5) == "send"


def test_breaker_duplicate_ack_does_not_mask_later_failures():
    """Duplicated acks reset nothing extra: the threshold still counts
    consecutive failures from zero, not from a negative balance."""
    breaker = CircuitBreaker(threshold=2, reset_s=1.0)
    breaker.record_failure(0.0)
    breaker.allow(1.0)  # probe window... still closed (threshold not hit)
    breaker.record_success()
    breaker.record_success()  # duplicate
    assert not breaker.record_failure(2.0)  # 1 of 2: must NOT open yet
    assert breaker.state == "closed"
    assert breaker.record_failure(2.0)  # 2 of 2: opens on schedule
    assert breaker.state == "open"


def test_breaker_stale_ack_in_half_open_closes_without_probe():
    """An ack that raced the reset window (sent pre-open, delivered after
    the breaker went half-open) closes the breaker and releases the
    probe slot -- it never wedges ``probing`` so that no probe can run."""
    breaker = CircuitBreaker(threshold=1, reset_s=1.0)
    breaker.record_failure(0.0)
    assert breaker.allow(1.0) == "probe"  # half-open, probe in flight
    assert breaker.record_success()  # stale/duplicated ack arrives first
    assert breaker.state == "closed"
    assert not breaker.probing
    # The probe's own ack is now just another duplicate.
    assert not breaker.record_success()
    assert breaker.allow(1.2) == "send"


# Phi-accrual detector ---------------------------------------------------------


def test_phi_is_zero_before_two_acks():
    phi = PhiAccrualDetector(window=8)
    assert phi.phi(1, 0.0) == 0.0
    phi.heartbeat(1, 1.0)
    assert phi.phi(1, 2.0) == 0.0  # one ack: no inter-arrival sample yet
    assert phi.suspicion(2.0) == 0.0


def test_phi_matches_exponential_formula():
    phi = PhiAccrualDetector(window=8)
    for t in (1.0, 2.0, 3.0, 4.0):  # mean inter-arrival 1.0
        phi.heartbeat(1, t)
    elapsed = 5.0
    assert phi.phi(1, 4.0 + elapsed) == pytest.approx(elapsed / math.log(10.0))
    # phi = 1 exactly one decade of silence later than expected.
    assert phi.phi(1, 4.0 + math.log(10.0)) == pytest.approx(1.0)


def test_phi_suspicion_is_max_over_peers():
    phi = PhiAccrualDetector(window=8)
    for t in (1.0, 2.0):
        phi.heartbeat(1, t)
        phi.heartbeat(2, t)
    phi.heartbeat(2, 3.0)  # peer 2 acked more recently
    assert phi.suspicion(4.0) == pytest.approx(phi.phi(1, 4.0))
    assert phi.phi(1, 4.0) > phi.phi(2, 4.0)


def test_phi_window_is_bounded():
    phi = PhiAccrualDetector(window=4)
    for t in range(1, 20):
        phi.heartbeat(1, float(t))
    assert len(phi._samples[1]) == 4


# Policy / config --------------------------------------------------------------


def test_policy_from_config_reads_overload_keys():
    policy = OverloadPolicy.from_config(Config(overload__credits=7, seed=3))
    assert policy.credits == 7
    assert policy.seed == 3
    # The phi thresholds have no key: they are the policy's own fields.
    assert (policy.phi_throttle, policy.phi_suspect, policy.phi_confirm) == (3.0, 8.0, 16.0)
    assert OverloadPolicy(phi_suspect=5.0, phi_confirm=9.0).phi_suspect == 5.0


def test_config_rejects_inverted_phi_thresholds():
    with pytest.raises(ConfigError):
        OverloadPolicy(phi_throttle=9.0, phi_suspect=5.0)


def test_config_rejects_bad_jitter():
    with pytest.raises(ConfigError):
        Config(parcel__retry_jitter=1.5)


def test_shed_error_is_a_dead_letter_error_with_retry_hint():
    err = ParcelShedError("too busy", retry_after=0.25)
    assert isinstance(err, ParcelDeadLetterError)
    assert err.retry_after == 0.25
    assert ParcelShedError("x").retry_after == 0.0


# Retry jitter (satellite a) ---------------------------------------------------


def test_zero_jitter_keeps_exact_backoff_schedule():
    policy = RetryPolicy(jitter=0.0)
    for attempt in (1, 2, 3):
        assert policy.jittered_timeout(attempt, 0) == policy.timeout(attempt)


def test_jitter_is_seeded_and_downward_only():
    one = RetryPolicy(jitter=0.5, seed=7)
    two = RetryPolicy(jitter=0.5, seed=7)
    other = RetryPolicy(jitter=0.5, seed=8)
    values = [one.jittered_timeout(a, s) for a in (1, 2, 3) for s in (0, 1)]
    assert values == [two.jittered_timeout(a, s) for a in (1, 2, 3) for s in (0, 1)]
    assert values != [other.jittered_timeout(a, s) for a in (1, 2, 3) for s in (0, 1)]
    for attempt in (1, 2, 3):
        base = one.timeout(attempt)
        jittered = one.jittered_timeout(attempt, 0)
        assert base * 0.5 <= jittered <= base  # within [1 - jitter, 1] of base


# Bounded dead-letter queue (satellite b) --------------------------------------


def _parcel(parcel_id_source=0):
    return Parcel(source_locality=parcel_id_source, payload=b"x" * 8, target_locality=1)


def test_dlq_evicts_oldest_first():
    port = LoopbackParcelport()
    port.dlq_max = 2
    parcels = [_parcel() for _ in range(4)]
    for parcel in parcels:
        port._dead_letter(parcel, "test")
    assert len(port.dead_letters) == 2
    assert port.parcels_dlq_evicted == 2
    kept = [parcel for parcel, _reason in port.dead_letters]
    assert kept == parcels[2:]  # the two oldest were evicted


def test_dlq_unbounded_when_dlq_max_is_zero():
    port = LoopbackParcelport()
    assert port.dlq_max == 0
    for _ in range(10):
        port._dead_letter(_parcel(), "test")
    assert len(port.dead_letters) == 10
    assert port.parcels_dlq_evicted == 0


def test_shed_fails_reply_promise_but_is_not_a_dead_letter_count():
    from repro.runtime.futures import Promise

    port = LoopbackParcelport()
    parcel = _parcel()
    parcel.reply_promise = Promise()
    port._shed(parcel, "overloaded", retry_after=0.125)
    assert port.parcels_dead_lettered == 0  # sheds keep the conservation law
    assert len(port.dead_letters) == 1
    with pytest.raises(ParcelShedError) as excinfo:
        parcel.reply_promise.get_future().get()
    assert excinfo.value.retry_after == 0.125


# Credit-based flow control, end to end ----------------------------------------


def _remote_unit() -> int:
    return 1


def _overload_runtime(**overrides):
    defaults = dict(overload__enabled=True, overload__credits=2)
    defaults.update(overrides)
    return Runtime(
        n_localities=2, workers_per_locality=2, config=Config(**defaults)
    )


def _counters(controller):
    return (
        controller.parcels_shed,
        controller.parcels_deferred,
        controller.parcels_completed,
        controller.credit_stalls,
        controller.credit_resumes,
        controller.breaker_opens,
    )


def test_credits_stall_and_resume_without_losing_parcels():
    with _overload_runtime() as rt:

        def main():
            futures = [rt.async_at(1, _remote_unit) for _ in range(10)]
            return sum(f.get() for f in futures)

        assert rt.run(main) == 10
        controller = rt._overload
        assert controller.credit_stalls > 0  # only 2 credits for 10 sends
        assert controller.credit_resumes == controller.credit_stalls
        assert controller.parcels_completed == 10
        assert controller.stalled_count() == 0


def test_controller_duplicated_probe_ack_closes_once_and_stays_closed():
    """A retransmitted ack of the half-open probe reaches the controller
    twice; the breaker closes exactly once, the probe completion is not
    double-counted, and the peer is only un-suspected once."""
    with _overload_runtime() as rt:
        controller = rt._overload
        breaker = controller.breaker(1)
        breaker.force_open(0.0)
        rt.parcelport.suspected_dead.add(1)
        probe = Parcel(source_locality=0, payload=b"x" * 8, target_locality=1)
        controller._probe_ids.add(probe.parcel_id)

        controller.on_ack(probe, 1, 2.0)
        assert breaker.state == "closed"
        assert controller.breaker_closes == 1
        assert controller.parcels_completed == 1
        assert 1 not in rt.parcelport.suspected_dead

        controller.on_ack(probe, 1, 2.5)  # the duplicate
        assert breaker.state == "closed"
        assert breaker.failures == 0
        assert controller.breaker_closes == 1  # no phantom second close
        assert controller.parcels_completed == 1  # not double-counted


def test_controller_duplicated_credit_ack_returns_credit_once():
    """Acking the same credit-holding parcel twice must not mint an extra
    credit: the second delivery sees ``holds_credit`` already cleared."""
    with _overload_runtime() as rt:
        controller = rt._overload
        parcel = Parcel(source_locality=0, payload=b"x" * 8, target_locality=1)
        parcel.holds_credit = True
        controller._inflight[1] = 1

        controller.on_ack(parcel, 1, 1.0)
        assert not parcel.holds_credit
        assert controller.inflight(1) == 0
        assert controller.parcels_completed == 1

        controller.on_ack(parcel, 1, 1.5)  # the duplicate
        assert controller.inflight(1) == 0  # never goes negative
        assert controller.parcels_completed == 1


def test_credit_flow_is_deterministic():
    def run():
        with _overload_runtime() as rt:

            def main():
                futures = [rt.async_at(1, _remote_unit) for _ in range(12)]
                return sum(f.get() for f in futures)

            rt.run(main)
            return (rt.makespan, _counters(rt._overload))

    assert run() == run()


def _slow_sink(cost: float) -> None:
    ctx.add_cost(cost)


def test_low_priority_storm_defers_then_sheds():
    with _overload_runtime(
        overload__credits=1, overload__defer_max=1, overload__defer_base_s=1e-6
    ) as rt:

        def main():
            for _ in range(8):
                rt.apply_at(1, _slow_sink, 1e-2, priority=ThreadPriority.LOW)
            return rt.async_at(1, _remote_unit).get()

        assert rt.run(main) == 1
        controller = rt._overload
        assert controller.parcels_deferred > 0
        assert controller.parcels_shed > 0
        # Shed LOW parcels land in the DLQ tagged as sheds, without
        # inflating the dead-letter *counter* (conservation law).
        assert any("shed:" in reason for _p, reason in rt.parcelport.dead_letters)
        assert rt.parcelport.parcels_dead_lettered == 0
        delivered = controller.parcels_completed
        assert delivered + controller.parcels_shed == 9


def test_same_locality_sends_bypass_admission():
    with _overload_runtime(overload__credits=1) as rt:

        def main():
            futures = [rt.async_at(0, _remote_unit) for _ in range(10)]
            return sum(f.get() for f in futures)

        assert rt.run(main) == 10
        assert rt._overload.credit_stalls == 0
        assert rt._overload.parcels_completed == 0  # no wire, no credits


# Perfcounters and trace events ------------------------------------------------


def test_overload_perfcounters_report_controller_state():
    with _overload_runtime() as rt:

        def main():
            futures = [rt.async_at(1, _remote_unit) for _ in range(10)]
            return sum(f.get() for f in futures)

        rt.run(main)
        controller = rt._overload
        assert perfcounters.query(rt, "/overload{total}/count/completed") == 10.0
        assert (
            perfcounters.query(rt, "/overload{total}/count/credits-stalled")
            == float(controller.credit_stalls)
        )
        assert perfcounters.query(rt, "/breaker{total}/count/opens") == 0.0
        assert perfcounters.query(rt, "/phi{total}/suspicion") >= 0.0
        paths = perfcounters.discover(rt)
        assert "/overload{total}/count/shed" in paths
        assert "/phi{total}/suspicion" in paths


def test_overload_counters_read_zero_when_disabled():
    with Runtime(n_localities=2, workers_per_locality=2) as rt:
        rt.run(lambda: rt.async_at(1, _remote_unit).get())
        assert perfcounters.query(rt, "/overload{total}/count/shed") == 0.0
        assert perfcounters.query(rt, "/breaker{total}/count/opens") == 0.0
        assert perfcounters.query(rt, "/phi{total}/suspicion") == 0.0
        assert "/overload{total}/count/shed" not in perfcounters.discover(rt)


def test_tracer_records_credit_and_shed_events():
    with _overload_runtime(
        overload__credits=1, overload__defer_max=1, overload__defer_base_s=1e-6
    ) as rt:
        tracer = Tracer()
        with tracer.attach(rt):

            def main():
                for _ in range(6):
                    rt.apply_at(1, _slow_sink, 1e-2, priority=ThreadPriority.LOW)
                futures = [rt.async_at(1, _remote_unit) for _ in range(4)]
                return sum(f.get() for f in futures)

            assert rt.run(main) == 4
        kinds = {event.kind for event in tracer.events}
        assert "credit_stall" in kinds
        assert "credit_resume" in kinds
        assert "parcel_deferred" in kinds
        assert "parcel_shed" in kinds


def test_dlq_shrink_mid_run_keeps_counters_reconciled():
    """Shrinking ``dlq_max`` while entries exist must evict immediately
    and keep the conservation law ``len(dead_letters) == dead_lettered +
    shed_lettered - dlq_evicted`` true at every step."""
    port = LoopbackParcelport()
    port.install_router(lambda parcel, arrival: None)
    port.fault_injector = FaultInjector(seed=0, drop_rate=1.0)
    port.retry_policy = RetryPolicy(enabled=False)

    def reconciled():
        assert len(port.dead_letters) == (
            port.parcels_dead_lettered
            + port.parcels_shed_lettered
            - port.parcels_dlq_evicted
        )

    # Unbounded phase: 4 dead letters + 2 sheds accumulate.
    for _ in range(4):
        port.send(_parcel())
        reconciled()
    for _ in range(2):
        port._shed(_parcel(), "overloaded", retry_after=0.1)
        reconciled()
    assert len(port.dead_letters) == 6
    assert port.parcels_dlq_evicted == 0

    # Shrink mid-run: the oldest entries go at once, counted as evicted.
    port.dlq_max = 3
    reconciled()
    assert len(port.dead_letters) == 3
    assert port.parcels_dlq_evicted == 3

    # Under the new bound every further entry evicts one: the cumulative
    # dead-letter counters keep growing while the queue stays pinned.
    for _ in range(3):
        port.send(_parcel())
        reconciled()
        assert len(port.dead_letters) == 3
    assert port.parcels_dead_lettered == 7
    assert port.parcels_shed_lettered == 2
    assert port.parcels_dlq_evicted == 6


def test_dlq_perfcounters_reconcile_after_shrink():
    """The counter surface exposes the same reconciliation: the
    ``queue/dead-letter`` gauge always equals dead-lettered plus
    shed-lettered minus evicted."""
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        port = rt.parcelport
        for _ in range(5):
            port._dead_letter(_parcel(), "test")
            port.parcels_dead_lettered += 1
        port._shed(_parcel(), "overloaded")
        port.dlq_max = 2  # mid-run shrink: evicts 4 of the 6 entries

        def gauge(path):
            return perfcounters.query(rt, path)

        assert gauge("/parcels{total}/queue/dead-letter") == float(
            len(port.dead_letters)
        )
        assert gauge("/parcels{total}/queue/dead-letter") == (
            gauge("/parcels{total}/count/dead-lettered")
            + gauge("/parcels{total}/count/shed-lettered")
            - gauge("/parcels{total}/count/dead-letter-evicted")
        )
        assert gauge("/parcels{total}/count/dead-letter-evicted") == 4.0
        assert "/parcels{total}/queue/dead-letter" in perfcounters.discover(rt)
