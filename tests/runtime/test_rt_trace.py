"""Unit tests for the execution tracer."""

import pytest

from repro.errors import RuntimeStateError
from repro.observability.tracer import Tracer
from repro.runtime import Runtime
from repro.runtime import context as ctx
from repro.runtime import instrument
from repro.runtime.threads.pool import ThreadPool


def _seam_is_empty() -> bool:
    return instrument.active_probes() == [] and instrument.enabled is False


def test_records_task_fields():
    pool = ThreadPool(2, name="p")
    tracer = Tracer()
    with tracer.attach(pool):
        pool.submit(lambda: ctx.add_cost(2.0), description="heavy")
        pool.run_all()
    assert len(tracer.records) == 1
    record = tracer.records[0]
    assert record.description == "heavy"
    assert record.duration == pytest.approx(2.0)
    assert record.pool == "p"


def test_detach_uninstalls_the_probe():
    pool = ThreadPool(1)
    tracer = Tracer()
    with tracer.attach(pool):
        assert instrument.active_probes() == [tracer]
        pool.submit(lambda: None)
        pool.run_all()
    assert _seam_is_empty()
    pool.submit(lambda: None)
    pool.run_all()
    assert len(tracer.records) == 1  # post-detach task not traced


def test_detach_uninstalls_the_probe_when_the_body_raises():
    pool = ThreadPool(1)
    with pytest.raises(ZeroDivisionError):
        with Tracer().attach(pool):
            1 / 0
    assert _seam_is_empty()


def test_attach_to_runtime_traces_all_localities():
    tracer = Tracer()
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        with tracer.attach(rt):
            rt.run(lambda: rt.async_at(1, abs, -1).get())
    pools = {r.pool for r in tracer.records}
    assert pools == {"locality-0", "locality-1"}


def test_attach_rejects_other_objects():
    with pytest.raises(RuntimeStateError):
        with Tracer().attach(object()):
            pass


def test_busy_fraction_full_when_balanced():
    pool = ThreadPool(2)
    tracer = Tracer()
    with tracer.attach(pool):
        for _ in range(4):
            pool.submit(lambda: ctx.add_cost(1.0))
        pool.run_all()
    assert tracer.busy_fraction() == pytest.approx(1.0)


def test_busy_fraction_counts_workers_that_ran_nothing():
    """Regression: lanes used to come only from traced records, so a
    1-busy-of-2-workers pool reported 100% utilization."""
    pool = ThreadPool(2)
    tracer = Tracer()
    with tracer.attach(pool):
        pool.submit(lambda: ctx.add_cost(4.0), worker=0)
        pool.run_all()
    assert tracer.busy_fraction() == pytest.approx(0.5)
    assert tracer.idle_rate() == pytest.approx(0.5)


def test_busy_fraction_one_of_eight_workers():
    pool = ThreadPool(8)
    tracer = Tracer()
    with tracer.attach(pool):
        pool.submit(lambda: ctx.add_cost(2.0), worker=3)
        pool.run_all()
    assert tracer.busy_fraction() == pytest.approx(1.0 / 8.0)


def test_busy_fraction_falls_back_to_lanes_without_attach_info():
    """Records injected without an attach (unknown pool) still work."""
    from repro.observability.tracer import TaskRecord

    tracer = Tracer()
    tracer.records.append(
        TaskRecord("ghost", 0, 1, "t", 0.0, 0.0, 2.0)
    )
    assert tracer.busy_fraction() == pytest.approx(1.0)


def test_queue_delay_measured():
    pool = ThreadPool(1)
    tracer = Tracer()
    with tracer.attach(pool):
        pool.submit(lambda: ctx.add_cost(3.0))
        pool.submit(lambda: ctx.add_cost(1.0))  # waits 3s for the worker
        pool.run_all()
    assert tracer.total_queue_delay() == pytest.approx(3.0)


def test_gantt_renders_lanes():
    pool = ThreadPool(2, name="pool")
    tracer = Tracer()
    with tracer.attach(pool):
        for _ in range(4):
            pool.submit(lambda: ctx.add_cost(1.0))
        pool.run_all()
    chart = tracer.render_gantt(width=40)
    assert "pool/w0" in chart and "pool/w1" in chart
    assert "#" in chart
    assert "@" not in chart  # no double-booked workers, ever


def test_gantt_empty():
    assert "no traced tasks" in Tracer().render_gantt()


def test_makespan_matches_pool():
    pool = ThreadPool(2)
    tracer = Tracer()
    with tracer.attach(pool):
        for _ in range(3):
            pool.submit(lambda: ctx.add_cost(1.0))
        pool.run_all()
    assert tracer.makespan == pytest.approx(pool.makespan)


# Attachment re-entrancy ------------------------------------------------------


def test_attach_is_not_reentrant():
    """Regression: overlapping attach blocks used to stack wrappers and
    record every task twice."""
    pool = ThreadPool(1)
    tracer = Tracer()
    with tracer.attach(pool):
        with pytest.raises(RuntimeStateError):
            with tracer.attach(pool):
                pass
        pool.submit(lambda: None)
        pool.run_all()
    assert len(tracer.records) == 1


def test_failed_attach_changes_nothing():
    """A refused attach leaves the tracer watching what it watched
    before, and the seam empties when the surviving block closes."""
    pool_a = ThreadPool(1, name="a")
    pool_b = ThreadPool(1, name="b")

    class FakeLoc:
        def __init__(self, pool):
            self.pool = pool

    class FakeRuntime:
        localities = [FakeLoc(pool_a), FakeLoc(pool_b)]

    tracer = Tracer()
    with tracer.attach(pool_b):  # pool_b already attached...
        with pytest.raises(RuntimeStateError):
            with tracer.attach(FakeRuntime()):  # ...so this fails on b
                pass
        assert instrument.active_probes() == [tracer]
        pool_a.submit(lambda: None)
        pool_a.run_all()
        assert not tracer.records  # pool_a is not watched
        # ...and the failed attach must not clobber b's live guard:
        with pytest.raises(RuntimeStateError):
            with tracer.attach(pool_b):
                pass
        pool_b.submit(lambda: None)
        pool_b.run_all()
        assert len(tracer.records) == 1  # pool_b still is
    assert _seam_is_empty()


def test_sequential_reattach_still_works():
    pool = ThreadPool(1)
    tracer = Tracer()
    for _ in range(2):
        with tracer.attach(pool):
            pool.submit(lambda: None)
            pool.run_all()
    assert len(tracer.records) == 2


def test_two_tracers_nest_cleanly():
    pool = ThreadPool(1)
    outer, inner = Tracer(), Tracer()
    with outer.attach(pool):
        with inner.attach(pool):
            assert instrument.active_probes() == [outer, inner]
            pool.submit(lambda: None)
            pool.run_all()
        assert instrument.active_probes() == [outer]
    assert _seam_is_empty()
    assert len(outer.records) == 1 and len(inner.records) == 1


# Event recording -------------------------------------------------------------


def test_steal_events_recorded():
    pool = ThreadPool(2)  # work-stealing scheduler by default
    tracer = Tracer()
    with tracer.attach(pool):
        for _ in range(8):
            pool.submit(lambda: ctx.add_cost(1.0), worker=0)
        pool.run_all()
    steals = tracer.events_of("steal")
    assert steals
    assert all(e.worker_id == 1 for e in steals)
    assert pool.steals == len(steals)


def test_parcel_events_and_latencies():
    tracer = Tracer()
    with Runtime(
        machine="xeon-e5-2660v3", n_localities=2, workers_per_locality=1
    ) as rt:
        with tracer.attach(rt):
            rt.run(lambda: rt.async_at(1, abs, -7).get())
    sends = tracer.events_of("parcel_send")
    recvs = tracer.events_of("parcel_recv")
    assert sends and recvs
    latencies = tracer.parcel_latencies()
    assert latencies
    # The request parcel crossed the modelled network: positive latency.
    assert max(latencies.values()) > 0.0


def test_parcel_drop_and_retry_events():
    from repro.resilience.faults import FaultInjector

    tracer = Tracer()
    injector = FaultInjector(seed=3, drop_rate=0.4)
    with Runtime(
        machine="xeon-e5-2660v3",
        n_localities=2,
        workers_per_locality=1,
        fault_injector=injector,
    ) as rt:
        with tracer.attach(rt):
            rt.run(
                lambda: [rt.async_at(1, abs, -i).get() for i in range(12)]
                and None
            )
    assert tracer.events_of("parcel_drop")
    assert tracer.events_of("parcel_retry")


def test_outage_events_recorded():
    from repro.resilience.faults import FaultInjector

    tracer = Tracer()
    injector = FaultInjector(seed=0).fail_locality(1, at=1.0, until=2.0)
    with Runtime(n_localities=2, workers_per_locality=1, fault_injector=injector) as rt:
        with tracer.attach(rt):
            rt.run(lambda: None)
    outages = tracer.events_of("outage")
    assert len(outages) == 1
    assert outages[0].time == pytest.approx(1.0)
    assert outages[0].args["until"] == pytest.approx(2.0)


def test_attach_patches_nothing_and_detach_empties_the_seam():
    with Runtime(
        machine="xeon-e5-2660v3", n_localities=2, workers_per_locality=1
    ) as rt:
        port = rt.parcelport
        router = port._router
        tracer = Tracer()
        with tracer.attach(rt):
            assert instrument.active_probes() == [tracer]
            assert port._router is router
            assert not {"send", "retransmit", "_handle_loss"} & set(vars(port))
            for loc in rt.localities:
                assert "_execute" not in vars(loc.pool)
                assert "acquire" not in vars(loc.pool.scheduler)
        assert _seam_is_empty()


def test_gantt_header_reports_idle_capacity():
    pool = ThreadPool(4, name="p")
    tracer = Tracer()
    with tracer.attach(pool):
        pool.submit(lambda: ctx.add_cost(2.0), worker=0)
        pool.run_all()
    chart = tracer.render_gantt(width=40)
    assert "busy 25.0%" in chart
    assert "idle 75.0%" in chart
    assert "of 4 workers" in chart
