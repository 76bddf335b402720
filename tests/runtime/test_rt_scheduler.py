"""Unit tests for the scheduler and its three policies."""

import pytest

from repro.errors import ConfigError, RuntimeStateError
from repro.runtime.threads.hpx_thread import HpxThread, ThreadPriority
from repro.runtime.threads.scheduler import Scheduler

POLICIES = ("fifo", "static", "work-stealing")


def task(name="t", priority=None):
    return HpxThread(lambda: None, description=name, priority=priority)


def test_factory():
    for name in POLICIES:
        assert Scheduler(2, name).name == name
    assert Scheduler(2).name == "work-stealing"
    with pytest.raises(ConfigError):
        Scheduler(2, "lottery")


def test_needs_at_least_one_worker():
    with pytest.raises(RuntimeStateError):
        Scheduler(0, "fifo")


def test_fifo_global_order():
    sched = Scheduler(2, "fifo")
    t1, t2, t3 = task("1"), task("2"), task("3")
    for t in (t1, t2, t3):
        sched.push(t)
    assert sched.acquire(0) is t1
    assert sched.acquire(1) is t2
    assert sched.acquire(0) is t3
    assert sched.acquire(0) is None


def test_fifo_len():
    sched = Scheduler(1, "fifo")
    sched.push(task())
    sched.push(task())
    assert len(sched) == 2


def test_static_round_robin_distribution():
    sched = Scheduler(2, "static")
    tasks = [task(str(i)) for i in range(4)]
    for t in tasks:
        sched.push(t)
    assert sched.acquire(0) is tasks[0]
    assert sched.acquire(0) is tasks[2]
    assert sched.acquire(1) is tasks[1]
    assert sched.acquire(1) is tasks[3]


def test_static_no_stealing():
    sched = Scheduler(2, "static")
    sched.push(task(), worker_hint=0)
    # Worker 1 must idle even though worker 0 has work.
    assert sched.acquire(1) is None
    assert len(sched) == 1


def test_static_honours_hint():
    sched = Scheduler(4, "static")
    t = task()
    sched.push(t, worker_hint=3)
    assert sched.acquire(3) is t


def test_work_stealing_own_queue_first():
    sched = Scheduler(2)
    own = task("own")
    other = task("other")
    sched.push(own, worker_hint=0)
    sched.push(other, worker_hint=1)
    assert sched.acquire(0) is own
    assert sched.steals == 0


def test_work_stealing_steals_when_dry():
    sched = Scheduler(2)
    t = task()
    sched.push(t, worker_hint=1)
    assert sched.acquire(0) is t
    assert sched.steals == 1
    assert t.worker_id == 0


def test_steal_takes_oldest_from_victim_back():
    sched = Scheduler(2)
    t1, t2 = task("old"), task("new")
    sched.push(t1, worker_hint=1)
    sched.push(t2, worker_hint=1)
    stolen = sched.acquire(0)
    assert stolen is t2  # back of the victim's deque
    assert sched.acquire(1) is t1  # owner pops front


def test_steal_attempts_limit():
    # Worker 0 may only probe 1 victim (worker 1); work on worker 2 is
    # out of its reach.
    sched = Scheduler(3, steal_attempts=1)
    sched.push(task(), worker_hint=2)
    assert sched.acquire(0) is None
    assert sched.acquire(1) is not None  # worker 1 probes worker 2


def test_worker_range_validated():
    sched = Scheduler(2)
    with pytest.raises(RuntimeStateError):
        sched.push(task(), worker_hint=5)
    with pytest.raises(RuntimeStateError):
        sched.acquire(-1)


def test_unhinted_push_round_robins():
    sched = Scheduler(2)
    t1, t2 = task(), task()
    sched.push(t1)
    sched.push(t2)
    assert sched.acquire(0) is t1
    assert sched.acquire(1) is t2
    assert sched.steals == 0


def test_fifo_workers_share_one_queue():
    # A hint is validated but lands in the one global FIFO: any worker
    # gets the oldest task, wherever it was "bound".
    sched = Scheduler(3, "fifo")
    t1, t2 = task("1"), task("2")
    sched.push(t1, worker_hint=2)
    sched.push(t2, worker_hint=0)
    assert sched.acquire(1) is t1
    assert sched.acquire(2) is t2
    assert sched.steals == 0
    with pytest.raises(RuntimeStateError):
        sched.push(task(), worker_hint=3)


def test_static_is_work_stealing_with_no_steal_budget():
    def acquire_sequence(sched):
        tasks = [task(str(i)) for i in range(7)]
        for i, t in enumerate(tasks):
            sched.push(t, worker_hint=None if i % 3 else i % 4)
        order = []
        for worker in (3, 0, 0, 1, 2, 2, 1, 3, 0, 1, 2, 3):
            got = sched.acquire(worker)
            order.append(None if got is None else tasks.index(got))
        return order

    static = acquire_sequence(Scheduler(4, "static"))
    assert static == acquire_sequence(Scheduler(4, "work-stealing", steal_attempts=0))
    assert None in static[:8]  # some worker idled while work was queued


def _mixed(sched):
    """Three tasks per priority, pushed LOW → NORMAL → HIGH round-robin."""
    tasks = {
        priority: [task(f"{priority.name}{i}", priority) for i in range(3)]
        for priority in (ThreadPriority.LOW, ThreadPriority.NORMAL, ThreadPriority.HIGH)
    }
    for group in tasks.values():
        for t in group:
            sched.push(t)
    return tasks


@pytest.mark.parametrize("name", POLICIES)
def test_drain_empties_and_zeroes_size(name):
    sched = Scheduler(2, name)
    tasks = _mixed(sched)
    assert sched.size == 9
    drained = sched.drain()
    assert sorted(t.tid for t in drained) == sorted(
        t.tid for group in tasks.values() for t in group
    )
    assert sched.size == len(sched) == 0
    assert sched.snapshot() == []
    assert sched.acquire(0) is None and sched.acquire(1) is None


@pytest.mark.parametrize("name", POLICIES)
def test_snapshot_is_queue_then_priority_then_fifo_order(name):
    sched = Scheduler(2, name)
    for_worker = {0: [], 1: []}
    pushes = [
        (ThreadPriority.LOW, 0), (ThreadPriority.NORMAL, 1), (ThreadPriority.HIGH, 0),
        (ThreadPriority.NORMAL, 0), (ThreadPriority.HIGH, 1), (ThreadPriority.NORMAL, 0),
        (ThreadPriority.LOW, 1), (ThreadPriority.HIGH, 0),
    ]
    for i, (priority, worker) in enumerate(pushes):
        t = task(str(i), priority)
        sched.push(t, worker_hint=worker)
        for_worker[0 if name == "fifo" else worker].append(t)
    rank = {ThreadPriority.HIGH: 0, ThreadPriority.NORMAL: 1, ThreadPriority.LOW: 2}
    expected = [
        t
        for worker in (0, 1)
        # sorted() is stable: FIFO within a priority level.
        for t in sorted(for_worker[worker], key=lambda t: rank[t.priority])
    ]
    assert sched.snapshot() == expected
    assert sched.size == len(pushes)  # nothing was removed


@pytest.mark.parametrize("name", POLICIES)
def test_remove_returns_false_for_unqueued_task(name):
    sched = Scheduler(2, name)
    queued, stranger = task("queued"), task("stranger")
    sched.push(queued, worker_hint=1)
    assert not sched.remove(stranger)
    assert sched.size == 1
    assert sched.remove(queued)
    assert not sched.remove(queued)
    assert sched.size == 0
    assert sched.acquire(0) is None and sched.acquire(1) is None


@pytest.mark.parametrize("name", POLICIES)
def test_pending_low_counts_low_only(name):
    sched = Scheduler(2, name)
    tasks = _mixed(sched)
    assert sched.pending_low() == 3
    assert sched.remove(tasks[ThreadPriority.LOW][0])
    assert sched.remove(tasks[ThreadPriority.HIGH][0])
    assert sched.pending_low() == 2
    sched.drain()
    assert sched.pending_low() == 0
