"""Property-based tests for the runtime: schedulers, pools, algorithms,
futures composition."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import Promise, Runtime, when_all
from repro.runtime import context as ctx
from repro.runtime.algorithms.partitioner import auto_chunk_size, partition
from repro.runtime.threads.hpx_thread import HpxThread
from repro.runtime.threads.pool import ThreadPool
from repro.runtime.threads.scheduler import Scheduler


@given(
    start=st.integers(min_value=0, max_value=100),
    length=st.integers(min_value=0, max_value=300),
    chunk=st.integers(min_value=1, max_value=50),
)
def test_partition_covers_range(start, length, chunk):
    chunks = partition(start, start + length, chunk)
    flat = [i for c in chunks for i in c]
    assert flat == list(range(start, start + length))
    assert all(len(c) <= chunk for c in chunks)


@given(
    n_items=st.integers(min_value=0, max_value=10_000),
    n_workers=st.integers(min_value=1, max_value=64),
)
def test_auto_chunk_size_bounds(n_items, n_workers):
    size = auto_chunk_size(n_items, n_workers)
    assert size >= 1
    if n_items:
        n_chunks = -(-n_items // size)
        assert n_chunks <= n_workers * 4 + n_workers  # ~4 chunks per worker


@given(
    scheduler_name=st.sampled_from(["fifo", "static", "work-stealing"]),
    n_workers=st.integers(min_value=1, max_value=8),
    n_tasks=st.integers(min_value=0, max_value=40),
    data=st.data(),
)
@settings(max_examples=60)
def test_every_pushed_task_acquired_exactly_once(
    scheduler_name, n_workers, n_tasks, data
):
    sched = Scheduler(n_workers, scheduler_name)
    tasks = [HpxThread(lambda: None) for _ in range(n_tasks)]
    for task in tasks:
        hint = data.draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=n_workers - 1))
        )
        sched.push(task, worker_hint=hint)
    acquired = []
    # Drain by cycling workers; every scheduler must eventually yield all
    # tasks to the full worker set.
    idle_rounds = 0
    while idle_rounds < n_workers:
        progressed = False
        for w in range(n_workers):
            task = sched.acquire(w)
            if task is not None:
                acquired.append(task)
                progressed = True
        idle_rounds = 0 if progressed else idle_rounds + 1
    assert len(acquired) == n_tasks
    assert {t.tid for t in acquired} == {t.tid for t in tasks}
    assert len(sched) == 0


@given(
    costs=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False), max_size=30
    ),
    n_workers=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60)
def test_makespan_work_conservation_bounds(costs, n_workers):
    """Virtual makespan obeys the list-scheduling bounds:
    total/P <= makespan <= total/P + max_cost (Graham)."""
    pool = ThreadPool(n_workers)
    for cost in costs:
        pool.submit(lambda c=cost: ctx.add_cost(c))
    makespan = pool.run_all()
    total = sum(costs)
    longest = max(costs, default=0.0)
    assert makespan >= total / n_workers - 1e-9
    assert makespan <= total / n_workers + longest + 1e-9


@given(n=st.integers(min_value=0, max_value=30))
@settings(max_examples=30)
def test_when_all_fires_only_after_all_n(n):
    promises = [Promise() for _ in range(n)]
    combined = when_all([p.get_future() for p in promises])
    for i, promise in enumerate(promises):
        assert combined.is_ready() == (n == i)  # ready iff none left before
        promise.set_value(i)
    assert combined.is_ready()
    assert [f.get() for f in combined.get()] == list(range(n))


@given(values=st.lists(st.integers(), min_size=1, max_size=20))
@settings(max_examples=30, deadline=None)
def test_future_chains_preserve_values(values):
    with Runtime(workers_per_locality=2) as rt:

        def main():
            future = None
            from repro.runtime import async_

            futures = [async_(lambda v=v: v) for v in values]
            return [f.get() for f in futures]

        assert rt.run(main) == values
