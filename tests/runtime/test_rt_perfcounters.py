"""Unit tests for the HPX-style performance-counter API."""

import pytest

from repro.errors import RuntimeStateError
from repro.runtime import Runtime, async_, perfcounters
from repro.runtime import context as ctx


def test_threads_count_cumulative(rt):
    rt.run(lambda: [async_(lambda: None) for _ in range(5)] and None)
    rt.progress_all()
    # 5 children + the main task (+ nothing else).
    assert perfcounters.query(rt, "/threads{total}/count/cumulative") == 6.0


def test_per_locality_instance():
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        rt.run(lambda: None)
        loc0 = perfcounters.query(rt, "/threads{locality#0/total}/count/cumulative")
        loc1 = perfcounters.query(rt, "/threads{locality#1/total}/count/cumulative")
        assert loc0 >= 1.0
        assert loc1 == 0.0


def test_queue_length(rt):
    pool = rt.localities[0].pool
    pool.submit(lambda: None)
    pool.submit(lambda: None)
    assert perfcounters.query(rt, "/threads{total}/queue/length") == 2.0
    rt.progress_all()
    assert perfcounters.query(rt, "/threads{total}/queue/length") == 0.0


def test_stolen_counter(rt):
    pool = rt.localities[0].pool
    for _ in range(8):
        pool.submit(lambda: ctx.add_cost(1.0), worker=0)
    rt.progress_all()
    assert perfcounters.query(rt, "/threads{total}/count/stolen") > 0


def test_idle_rate_bounds(rt):
    def main():
        async_(lambda: ctx.add_cost(4.0))  # one long task -> 3 idle workers

    rt.run(main)
    rt.progress_all()
    idle = perfcounters.query(rt, "/threads{total}/idle-rate")
    assert 0.5 < idle < 1.0  # 3 of 4 workers idle most of the makespan


def test_idle_rate_counts_delayed_start_as_idle(rt):
    """A task deferred by ready_time leaves the worker idle, not busy --
    the counter reads attributed cost, not end times."""
    pool = rt.localities[0].pool
    pool.submit(lambda: ctx.add_cost(1.0), ready_time=9.0)
    rt.progress_all()
    # 1 busy second out of 4 workers x 10s makespan.
    idle = perfcounters.query(rt, "/threads{total}/idle-rate")
    assert idle == pytest.approx(1.0 - 1.0 / 40.0)


def test_time_average(rt):
    rt.run(lambda: [async_(lambda: ctx.add_cost(2.0)) for _ in range(4)] and None)
    rt.progress_all()
    avg = perfcounters.query(rt, "/threads{total}/time/average")
    assert avg > 0.0


def test_time_average_weights_localities_by_task_count():
    """Regression: the job-wide average used to be the unweighted mean of
    per-locality means.  Three 1s tasks on locality 0 and one 5s task on
    locality 1 must average (3+5)/4 = 2s, not (1+5)/2 = 3s."""
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        for _ in range(3):
            rt.localities[0].pool.submit(lambda: ctx.add_cost(1.0))
        rt.localities[1].pool.submit(lambda: ctx.add_cost(5.0))
        rt.progress_all()
        loc0 = perfcounters.query(rt, "/threads{locality#0/total}/time/average")
        loc1 = perfcounters.query(rt, "/threads{locality#1/total}/time/average")
        assert loc0 == pytest.approx(1.0)
        assert loc1 == pytest.approx(5.0)
        job = perfcounters.query(rt, "/threads{total}/time/average")
        assert job == pytest.approx(2.0)


def test_idle_rate_weights_localities_by_capacity():
    """Regression: job-wide idle-rate used to average per-locality rates,
    hiding imbalance.  Both localities are 0% idle on their *own* clock,
    but the job ends when the slow one does: 8 busy seconds out of
    2 workers x 5s capacity = 20% idle."""
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        for _ in range(3):
            rt.localities[0].pool.submit(lambda: ctx.add_cost(1.0))
        rt.localities[1].pool.submit(lambda: ctx.add_cost(5.0))
        rt.progress_all()
        loc0 = perfcounters.query(rt, "/threads{locality#0/total}/idle-rate")
        loc1 = perfcounters.query(rt, "/threads{locality#1/total}/idle-rate")
        assert loc0 == pytest.approx(0.0)
        assert loc1 == pytest.approx(0.0)
        job = perfcounters.query(rt, "/threads{total}/idle-rate")
        assert job == pytest.approx(0.2)


def test_per_worker_counters():
    from repro.config import Config

    # Static scheduler keeps the work pinned to worker 0.
    config = Config.from_mapping({"threads.scheduler": "static"})
    with Runtime(n_localities=1, workers_per_locality=2, config=config) as rt:
        pool = rt.localities[0].pool
        for _ in range(3):
            pool.submit(lambda: ctx.add_cost(2.0), worker=0)
        rt.progress_all()
        _assert_worker_counters(rt)


def _assert_worker_counters(rt):
    w0_count = perfcounters.query(rt, "/threads{locality#0/worker#0}/count/cumulative")
    w1_count = perfcounters.query(rt, "/threads{locality#0/worker#1}/count/cumulative")
    assert w0_count == 3.0
    assert w1_count == 0.0
    w0_busy = perfcounters.query(rt, "/threads{locality#0/worker#0}/time/busy")
    assert w0_busy == pytest.approx(6.0)
    w0_idle = perfcounters.query(rt, "/threads{locality#0/worker#0}/idle-rate")
    w1_idle = perfcounters.query(rt, "/threads{locality#0/worker#1}/idle-rate")
    assert w0_idle == pytest.approx(0.0)
    assert w1_idle == pytest.approx(1.0)


def test_parcel_counters():
    with Runtime(machine="xeon-e5-2660v3", n_localities=2, workers_per_locality=1) as rt:
        rt.run(lambda: rt.async_at(1, abs, -3).get())
        assert perfcounters.query(rt, "/parcels{total}/count/sent") >= 1.0
        assert perfcounters.query(rt, "/parcels{total}/data/sent") > 0.0


def test_parcel_latency_counters():
    with Runtime(machine="xeon-e5-2660v3", n_localities=2, workers_per_locality=1) as rt:
        rt.run(lambda: [rt.async_at(1, abs, -i).get() for i in range(4)] and None)
        delivered = perfcounters.query(rt, "/parcels{total}/count/delivered")
        sent = perfcounters.query(rt, "/parcels{total}/count/sent")
        assert delivered == sent  # clean network: everything arrives
        latency = perfcounters.query(rt, "/parcels{total}/time/average-latency")
        assert latency > 0.0  # the modelled network is not instantaneous
        in_flight = perfcounters.query(rt, "/parcels{total}/count/retries-in-flight")
        assert in_flight == 0.0


def test_retries_in_flight_settles_to_zero_after_drops():
    from repro.resilience.faults import FaultInjector

    injector = FaultInjector(seed=5, drop_rate=0.3)
    with Runtime(
        machine="xeon-e5-2660v3",
        n_localities=2,
        workers_per_locality=1,
        fault_injector=injector,
    ) as rt:
        rt.run(lambda: [rt.async_at(1, abs, -i).get() for i in range(10)] and None)
        retried = perfcounters.query(rt, "/parcels{total}/count/retried")
        assert retried > 0.0  # the fault schedule did drop parcels
        # Every scheduled retry has been retransmitted by the end of the run.
        in_flight = perfcounters.query(rt, "/parcels{total}/count/retries-in-flight")
        assert in_flight == 0.0


def test_uptime_is_makespan(rt):
    rt.run(lambda: ctx.add_cost(1.5))
    assert perfcounters.query(rt, "/runtime/uptime") == pytest.approx(rt.makespan)


def test_malformed_paths_rejected(rt):
    for bad in (
        "threads/count",  # no leading slash
        "/threads{locality#x/total}/count/cumulative",
        "/threads{total}/count/bogus",
        "/parcels{locality#0/total}/count/sent",
        "/nonsense/count",
        "/runtime/downtime",
        "/runtime{locality#0/total}/uptime",  # job-wide, like every non-thread object
    ):
        with pytest.raises(RuntimeStateError):
            perfcounters.query(rt, bad)


def test_discover_lists_queryable_paths(rt):
    paths = perfcounters.discover(rt)
    assert "/runtime/uptime" in paths
    for path in paths:
        value = perfcounters.query(rt, path)
        assert isinstance(value, float)


def test_docstring_table_lists_exactly_the_catalogue():
    """One vocabulary: the paths the module documents are the rows
    ``query`` looks up and ``discover`` iterates."""
    import re

    documented = {
        (obj, counter)
        for obj, counter in re.findall(
            r"^    /([a-z]+)(?:\{total\})?/(\S+) ", perfcounters.__doc__, re.M
        )
    }
    catalogue = {("threads", counter) for counter in perfcounters._THREADS} | {
        (obj, counter)
        for obj, counters in perfcounters._CATALOGUE.items()
        for counter in counters
    }
    assert documented == catalogue


#: ``discover()`` on a 2x2 virtual runtime, as recorded before the tables.
_DISCOVERED_2X2 = """
/threads{total}/count/cumulative
/threads{locality#0/total}/count/cumulative
/threads{locality#1/total}/count/cumulative
/threads{total}/count/stolen
/threads{locality#0/total}/count/stolen
/threads{locality#1/total}/count/stolen
/threads{total}/queue/length
/threads{locality#0/total}/queue/length
/threads{locality#1/total}/queue/length
/threads{total}/queue/length-low
/threads{locality#0/total}/queue/length-low
/threads{locality#1/total}/queue/length-low
/threads{total}/time/average
/threads{locality#0/total}/time/average
/threads{locality#1/total}/time/average
/threads{total}/time/busy
/threads{locality#0/total}/time/busy
/threads{locality#1/total}/time/busy
/threads{total}/idle-rate
/threads{locality#0/total}/idle-rate
/threads{locality#1/total}/idle-rate
/threads{locality#0/worker#0}/count/cumulative
/threads{locality#0/worker#1}/count/cumulative
/threads{locality#1/worker#0}/count/cumulative
/threads{locality#1/worker#1}/count/cumulative
/threads{locality#0/worker#0}/time/busy
/threads{locality#0/worker#1}/time/busy
/threads{locality#1/worker#0}/time/busy
/threads{locality#1/worker#1}/time/busy
/threads{locality#0/worker#0}/idle-rate
/threads{locality#0/worker#1}/idle-rate
/threads{locality#1/worker#0}/idle-rate
/threads{locality#1/worker#1}/idle-rate
/parcels{total}/count/sent
/parcels{total}/data/sent
/parcels{total}/count/delivered
/parcels{total}/time/average-latency
/parcels{total}/count/retries-in-flight
/parcels{total}/queue/dead-letter
/parcels{total}/count/dropped
/parcels{total}/count/corrupted
/parcels{total}/count/duplicated
/parcels{total}/count/delayed
/parcels{total}/count/retried
/parcels{total}/count/dead-lettered
/parcels{total}/count/shed-lettered
/parcels{total}/count/dead-letter-evicted
/localities{total}/count/failed
/localities{total}/count/decommissioned
/checkpoints{total}/count/saved
/checkpoints{total}/count/restored
/checkpoints{total}/count/fallbacks
/checkpoints{total}/count/corrupt-skipped
/checkpoints{total}/data/saved
/checkpoints{total}/time/save
/checkpoints{total}/time/restore
/runtime/uptime
""".split()


def test_discover_order_is_pinned():
    with Runtime(n_localities=2, workers_per_locality=2) as rt:
        assert perfcounters.discover(rt) == _DISCOVERED_2X2
