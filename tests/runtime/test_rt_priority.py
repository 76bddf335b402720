"""Unit tests for thread priorities across all schedulers."""

import pytest

from repro.runtime.threads.hpx_thread import HpxThread, ThreadPriority
from repro.runtime.threads.pool import ThreadPool
from repro.runtime.threads.scheduler import Scheduler


def task(priority=ThreadPriority.NORMAL, name="t"):
    return HpxThread(lambda: None, description=name, priority=priority)


def test_default_priority_is_normal():
    assert HpxThread(lambda: None).priority == ThreadPriority.NORMAL


def test_priority_ordering_values():
    assert ThreadPriority.HIGH > ThreadPriority.NORMAL > ThreadPriority.LOW


@pytest.mark.parametrize("scheduler_name", ["fifo", "static", "work-stealing"])
def test_high_priority_runs_first(scheduler_name):
    sched = Scheduler(1, scheduler_name)
    low = task(ThreadPriority.LOW, "low")
    normal = task(ThreadPriority.NORMAL, "normal")
    high = task(ThreadPriority.HIGH, "high")
    for t in (low, normal, high):
        sched.push(t, worker_hint=0)
    order = [sched.acquire(0).description for _ in range(3)]
    assert order == ["high", "normal", "low"]


def test_fifo_within_priority_level():
    sched = Scheduler(1, "fifo")
    tasks = [task(ThreadPriority.NORMAL, f"n{i}") for i in range(4)]
    for t in tasks:
        sched.push(t)
    order = [sched.acquire(0).description for _ in range(4)]
    assert order == ["n0", "n1", "n2", "n3"]


def test_thieves_steal_high_priority_first():
    sched = Scheduler(2)
    sched.push(task(ThreadPriority.LOW, "low"), worker_hint=1)
    sched.push(task(ThreadPriority.HIGH, "high"), worker_hint=1)
    stolen = sched.acquire(0)  # worker 0 steals from worker 1
    assert stolen.description == "high"


def test_pool_submit_priority_end_to_end():
    pool = ThreadPool(1)
    order = []
    pool.submit(lambda: order.append("normal"))
    pool.submit(lambda: order.append("low"), priority=ThreadPriority.LOW)
    pool.submit(lambda: order.append("high"), priority=ThreadPriority.HIGH)
    pool.run_all()
    assert order == ["high", "normal", "low"]


def test_priority_does_not_break_counts():
    sched = Scheduler(2)
    for i in range(10):
        sched.push(task(ThreadPriority(i % 3)))
    assert len(sched) == 10
    got = 0
    while any(sched.acquire(w) for w in range(2)):
        got += 1
    assert len(sched) == 0
