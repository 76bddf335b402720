"""Property-based tests for priority scheduling and virtual-time bounds."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import context as ctx
from repro.runtime.threads.hpx_thread import HpxThread, ThreadPriority
from repro.runtime.threads.pool import ThreadPool
from repro.runtime.threads.scheduler import Scheduler


@given(
    scheduler_name=st.sampled_from(["fifo", "static", "work-stealing"]),
    priorities=st.lists(st.sampled_from(list(ThreadPriority)), max_size=30),
)
@settings(max_examples=60)
def test_single_worker_service_order_respects_priority(scheduler_name, priorities):
    """On one worker, any push sequence drains HIGH >= NORMAL >= LOW and
    FIFO within each level."""
    sched = Scheduler(1, scheduler_name)
    tasks = []
    for i, priority in enumerate(priorities):
        task = HpxThread(lambda: None, description=f"{i}", priority=priority)
        sched.push(task, worker_hint=0)
        tasks.append(task)
    drained = []
    while True:
        task = sched.acquire(0)
        if task is None:
            break
        drained.append(task)
    assert len(drained) == len(tasks)
    # Priorities non-increasing in service order...
    served_priorities = [t.priority for t in drained]
    assert served_priorities == sorted(served_priorities, reverse=True)
    # ...and FIFO within each level.
    for level in ThreadPriority:
        pushed = [t.description for t in tasks if t.priority == level]
        served = [t.description for t in drained if t.priority == level]
        assert served == pushed


@given(
    costs=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            st.sampled_from(list(ThreadPriority)),
        ),
        max_size=25,
    ),
    n_workers=st.integers(1, 6),
)
@settings(max_examples=50)
def test_priorities_never_change_total_work(costs, n_workers):
    """Priorities reorder execution but conserve total busy time."""
    pool = ThreadPool(n_workers)
    for cost, priority in costs:
        pool.submit(lambda c=cost: ctx.add_cost(c), priority=priority)
    makespan = pool.run_all()
    total = sum(c for c, _ in costs)
    busy = sum(w.available_at for w in pool.workers)
    # Workers' end times include idle tails only up to the makespan.
    assert busy >= total - 1e-9
    assert makespan <= total + 1e-9


@given(seed=st.integers(0, 2**16))
@settings(max_examples=25)
def test_execution_is_deterministic(seed):
    """Same submissions -> identical schedules, twice."""
    import random

    def build_and_run():
        rng = random.Random(seed)
        pool = ThreadPool(3)
        order = []
        for i in range(12):
            cost = rng.uniform(0, 2)
            priority = rng.choice(list(ThreadPriority))
            pool.submit(
                lambda i=i, c=cost: (ctx.add_cost(c), order.append(i)),
                priority=priority,
            )
        makespan = pool.run_all()
        return order, makespan

    assert build_and_run() == build_and_run()
