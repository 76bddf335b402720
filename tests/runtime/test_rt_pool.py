"""Unit tests for the cooperative thread pool and its virtual clock."""

import pytest

from repro.errors import DeadlockError, RuntimeStateError
from repro.runtime import context as ctx
from repro.runtime.threads.pool import ThreadPool


def test_submit_and_run_all():
    pool = ThreadPool(2)
    results = []
    pool.submit(lambda: results.append(1))
    pool.submit(lambda: results.append(2))
    pool.run_all()
    assert sorted(results) == [1, 2]
    assert pool.tasks_executed == 2


def test_future_value():
    pool = ThreadPool(1)
    future = pool.submit(lambda: 6 * 7)
    pool.run_all()
    assert future.get() == 42


def test_submit_with_args_and_kwargs():
    pool = ThreadPool(1)
    future = pool.submit(lambda a, b=0: a + b, 1, kwargs={"b": 2})
    pool.run_all()
    assert future.get() == 3


def test_pool_validation():
    with pytest.raises(RuntimeStateError):
        ThreadPool(0)
    with pytest.raises(RuntimeStateError):
        ThreadPool(2, core_ids=[1])


def test_exception_goes_to_future_and_failures():
    pool = ThreadPool(1)

    def boom(tag):
        raise ValueError("boom")

    future = pool.submit(boom, "kept for the postmortem")
    pool.run_all()
    with pytest.raises(ValueError):
        future.get()
    assert len(pool.failures) == 1
    # The failure record still knows what it ran, and with what.
    task, exc = pool.failures[0]
    assert task.fn is boom
    assert task.args == ("kept for the postmortem",)
    assert task.description == "boom"
    assert isinstance(exc, ValueError)


def test_spawns_draw_strictly_increasing_tids():
    pool = ThreadPool(2)
    futures = [pool.submit(lambda: ctx.current_task().tid) for _ in range(10_000)]
    pool.run_all()
    tids = [future.get() for future in futures]
    assert all(a < b for a, b in zip(tids, tids[1:]))


def test_virtual_time_parallel_tasks():
    """Two 1-second tasks on two workers finish at t=1, not t=2."""
    pool = ThreadPool(2)

    def work():
        ctx.add_cost(1.0)

    pool.submit(work)
    pool.submit(work)
    assert pool.run_all() == pytest.approx(1.0)


def test_virtual_time_serialized_on_one_worker():
    pool = ThreadPool(1)

    def work():
        ctx.add_cost(1.0)

    pool.submit(work)
    pool.submit(work)
    assert pool.run_all() == pytest.approx(2.0)


def test_load_balance_across_workers():
    """8 x 1s tasks on 4 workers -> makespan 2s (list scheduling)."""
    pool = ThreadPool(4)
    for _ in range(8):
        pool.submit(lambda: ctx.add_cost(1.0))
    assert pool.run_all() == pytest.approx(2.0)


def test_dependency_delays_finish_time():
    """A consumer that reads a future cannot finish before the producer."""
    pool = ThreadPool(2)

    def producer():
        ctx.add_cost(5.0)
        return "data"

    producer_future = pool.submit(producer)

    def consumer():
        value = producer_future.get()
        ctx.add_cost(1.0)
        return value

    consumer_future = pool.submit(consumer)
    makespan = pool.run_all()
    assert consumer_future.get() == "data"
    # Producer finishes at 5, consumer adds 1 after its dependency.
    assert makespan == pytest.approx(6.0)


def test_ready_time_respected():
    pool = ThreadPool(1)
    pool.submit(lambda: ctx.add_cost(1.0), ready_time=10.0)
    assert pool.run_all() == pytest.approx(11.0)


def test_workers_fill_a_ready_time_gap_with_other_work():
    pool = ThreadPool(4)
    pool.submit(lambda: ctx.add_cost(1.0), ready_time=5.0)
    for _ in range(3):
        pool.submit(lambda: ctx.add_cost(1.0))
    # The ready tasks fill t in [0, 1]; the timed one runs [5, 6]:
    # makespan 6, not 5 + 1 + 3 sequentialised.
    assert pool.run_all() == pytest.approx(6.0)


def test_worker_pinning():
    pool = ThreadPool(2, scheduler="static")
    seen = []

    def record():
        seen.append(ctx.current().worker_id)

    pool.submit(record, worker=1)
    pool.submit(record, worker=1)
    pool.run_all()
    assert seen == [1, 1]


def test_blocking_get_helps_scheduler():
    pool = ThreadPool(1)

    def child():
        return 5

    def parent():
        return pool.submit(child).get() * 2

    future = pool.submit(parent)
    pool.run_all()
    assert future.get() == 10


def test_deadlock_detection():
    from repro.runtime.futures import Promise

    pool = ThreadPool(1)
    orphan = Promise().get_future()
    failed = pool.submit(lambda: orphan.get())
    pool.run_all()
    with pytest.raises((DeadlockError, Exception)):
        failed.get()
    assert pool.failures, "the blocked task must be recorded as failed"
    assert isinstance(pool.failures[0][1], DeadlockError)


def test_steals_counted():
    pool = ThreadPool(2, scheduler="work-stealing")
    # Pin everything to worker 0's queue; worker 1 must steal.
    for _ in range(4):
        pool.submit(lambda: ctx.add_cost(1.0), worker=0)
    pool.run_all()
    assert pool.steals > 0


def test_fifo_pool_has_no_steals():
    pool = ThreadPool(2, scheduler="fifo")
    pool.submit(lambda: None)
    pool.run_all()
    assert pool.steals == 0


def test_children_inherit_parent_virtual_time():
    pool = ThreadPool(2)

    def parent():
        ctx.add_cost(4.0)
        pool.submit(lambda: ctx.add_cost(1.0))

    pool.submit(parent)
    # Child becomes ready at t=4 and runs 1s -> makespan 5.
    assert pool.run_all() == pytest.approx(5.0)


def test_now_outside_tasks_is_makespan():
    pool = ThreadPool(1)
    pool.submit(lambda: ctx.add_cost(2.0))
    pool.run_all()
    assert pool.now == pytest.approx(2.0)
