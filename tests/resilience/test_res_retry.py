"""Port-level tests for reliable delivery: retries, dead letters, stats."""

import pytest

from repro.errors import ParcelDeadLetterError
from repro.resilience import FaultInjector, RetryPolicy
from repro.runtime.futures import Promise
from repro.runtime.parcel import LoopbackParcelport, Parcel


def _parcel(payload=b"x" * 32):
    return Parcel(source_locality=0, payload=payload, target_locality=1)


def _port(injector=None, policy=None, scheduler=None):
    """A loopback port with a recording router and optional fault gear."""
    port = LoopbackParcelport()
    delivered = []
    port.install_router(lambda parcel, arrival: delivered.append((parcel, arrival)))
    port.fault_injector = injector
    port.retry_policy = policy
    if scheduler is not None:
        port.install_retry_scheduler(scheduler)
    return port, delivered


# Statistics correctness (regression) ------------------------------------------

def test_raising_router_leaves_no_phantom_stats():
    """Stats must move only after the router accepted the parcel: a router
    that raises (e.g. an unresolvable GID) must not inflate the counters."""
    port = LoopbackParcelport()

    def bad_router(parcel, arrival):
        raise RuntimeError("router rejected the parcel")

    port.install_router(bad_router)
    with pytest.raises(RuntimeError):
        port.send(_parcel())
    assert port.parcels_sent == 0
    assert port.bytes_sent == 0


def test_clean_send_counts_once():
    port, delivered = _port()
    parcel = _parcel()
    port.send(parcel)
    assert port.parcels_sent == 1
    assert port.bytes_sent == parcel.size_bytes
    assert len(delivered) == 1


# Fault fates at the port ------------------------------------------------------

def test_dropped_parcel_never_reaches_router_but_counts_as_sent():
    port, delivered = _port(injector=FaultInjector(seed=0, drop_rate=1.0))
    parcel = _parcel()
    port.send(parcel)
    assert delivered == []
    assert port.parcels_sent == 1  # it left the NIC
    assert port.parcels_dropped == 1
    assert port.parcels_dead_lettered == 1  # no retry policy installed


def test_corrupt_counts_separately_from_drop():
    port, delivered = _port(injector=FaultInjector(seed=0, corrupt_rate=1.0))
    port.send(_parcel())
    assert delivered == []
    assert port.parcels_corrupted == 1
    assert port.parcels_dropped == 0
    assert port.dead_letters[0][1] == "corrupted in flight"


def test_duplicate_delivers_twice_and_counts_twice():
    port, delivered = _port(injector=FaultInjector(seed=0, duplicate_rate=1.0))
    parcel = _parcel()
    port.send(parcel)
    assert len(delivered) == 2
    assert port.parcels_sent == 2
    assert port.bytes_sent == 2 * parcel.size_bytes
    assert port.parcels_duplicated == 1
    assert delivered[0][1] <= delivered[1][1]  # copies arrive in order


def test_delay_spike_pushes_arrival_later():
    inj = FaultInjector(seed=0, delay_rate=1.0, delay_spike_s=1e-4)
    port, delivered = _port(injector=inj)
    parcel = _parcel()
    nominal = parcel.send_time
    port.send(parcel)
    assert port.parcels_delayed == 1
    assert delivered[0][1] > nominal


# Retry and dead-letter machinery ----------------------------------------------

def test_loss_schedules_retry_with_backoff():
    scheduled = []
    policy = RetryPolicy(max_attempts=4, base_timeout_s=1e-5, max_timeout_s=1e-3)
    port, _ = _port(
        injector=FaultInjector(seed=0, drop_rate=1.0),
        policy=policy,
        scheduler=lambda parcel, at: scheduled.append((parcel, at)),
    )
    parcel = _parcel()
    port.send(parcel)
    assert port.parcels_retried == 1
    assert scheduled[0][1] == pytest.approx(parcel.send_time + 1e-5)
    # The runtime's retry task would call retransmit; emulate it.
    port.retransmit(parcel)
    assert parcel.attempts == 2
    assert port.parcels_dropped == 2
    assert scheduled[1][1] == pytest.approx(parcel.send_time + 2e-5)


def test_attempts_exhausted_dead_letters_and_fails_reply_promise():
    scheduled = []
    policy = RetryPolicy(max_attempts=3, base_timeout_s=1e-5, max_timeout_s=1e-3)
    port, _ = _port(
        injector=FaultInjector(seed=0, drop_rate=1.0),
        policy=policy,
        scheduler=lambda parcel, at: scheduled.append(parcel),
    )
    parcel = _parcel()
    parcel.reply_promise = Promise()
    port.send(parcel)
    port.retransmit(parcel)
    port.retransmit(parcel)  # third and last transmission
    assert parcel.attempts == 3
    assert port.parcels_dropped == 3
    assert port.parcels_retried == 2
    assert port.parcels_dead_lettered == 1
    assert len(port.dead_letters) == 1
    with pytest.raises(ParcelDeadLetterError):
        parcel.reply_promise.get_future().get()


def test_retry_disabled_dead_letters_on_first_loss():
    policy = RetryPolicy(enabled=False)
    port, _ = _port(
        injector=FaultInjector(seed=0, drop_rate=1.0),
        policy=policy,
        scheduler=lambda parcel, at: pytest.fail("must not schedule retries"),
    )
    port.send(_parcel())
    assert port.parcels_dropped == 1
    assert port.parcels_retried == 0
    assert port.parcels_dead_lettered == 1


def test_report_loss_feeds_same_machinery():
    scheduled = []
    port, _ = _port(
        policy=RetryPolicy(max_attempts=2),
        scheduler=lambda parcel, at: scheduled.append(parcel),
    )
    parcel = _parcel()
    parcel.attempts = 1  # it was transmitted, then the destination died
    port.report_loss(parcel, "locality 1 down")
    assert port.parcels_dropped == 1
    assert scheduled == [parcel]


def test_successful_retransmit_after_transient_drop():
    """Seeded so attempt 1 drops and attempt 2 delivers."""
    inj = FaultInjector(seed=1, drop_rate=0.5)
    parcel = _parcel()
    # Find out what this schedule does (pure function, so peeking is free).
    fates = [inj.parcel_fate(parcel, k).kind for k in (1, 2)]
    assert fates == ["drop", "deliver"]

    scheduled = []
    port, delivered = _port(
        injector=FaultInjector(seed=1, drop_rate=0.5),
        policy=RetryPolicy(max_attempts=8),
        scheduler=lambda p, at: scheduled.append(p),
    )
    fresh = Parcel(source_locality=0, payload=b"x" * 32, target_locality=1)
    port.send(fresh)
    assert delivered == [] and len(scheduled) == 1
    assert port.parcels_dropped == 1
    port.retransmit(fresh)
    assert len(delivered) == 1
    assert port.parcels_dead_lettered == 0
