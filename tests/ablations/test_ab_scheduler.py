"""Ablation: scheduler choice under load imbalance.

ParalleX's claim is that work-stealing absorbs the load imbalance that
static schedules cannot ("the scheduler deals with the load imbalance",
Sec. I).  This ablation runs an imbalanced task set -- a few heavy tasks
among many light ones -- through all three schedulers on the
virtual-time pool and compares makespans.
"""

import pytest

from repro.runtime import context as ctx
from repro.runtime.threads.pool import ThreadPool

N_WORKERS = 8
LIGHT, HEAVY = 1.0, 12.0


def imbalanced_makespan(scheduler: str) -> float:
    """48 light + 8 heavy tasks; heavy ones all land on two workers'
    initial queues, so only stealing can spread them."""
    pool = ThreadPool(N_WORKERS, scheduler=scheduler)
    for i in range(48):
        pool.submit(lambda: ctx.add_cost(LIGHT), worker=i % N_WORKERS)
    for i in range(8):
        pool.submit(lambda: ctx.add_cost(HEAVY), worker=i % 2)
    return pool.run_all()


def test_work_stealing_beats_static():
    ws = imbalanced_makespan("work-stealing")
    static = imbalanced_makespan("static")
    fifo = imbalanced_makespan("fifo")
    total_work = 48 * LIGHT + 8 * HEAVY
    lower_bound = total_work / N_WORKERS
    print(
        "Ablation: makespan of an imbalanced task set (8 workers, "
        f"ideal {lower_bound:.1f}s)\n"
        f"work-stealing: {ws:.1f}s   static: {static:.1f}s   fifo: {fifo:.1f}s"
    )
    assert ws < static
    # Stealing lands within Graham's bound of optimal.
    assert ws <= lower_bound + HEAVY
    # Static serialises the heavy tasks on two workers.
    assert static >= 4 * HEAVY


def test_balanced_load_makes_schedulers_equal():
    """With identical tasks, placement barely matters."""
    results = {}
    for scheduler in ("work-stealing", "static", "fifo"):
        pool = ThreadPool(4, scheduler=scheduler)
        for i in range(16):
            pool.submit(lambda: ctx.add_cost(1.0), worker=i % 4)
        results[scheduler] = pool.run_all()
    assert max(results.values()) == pytest.approx(min(results.values()))


def test_stealing_count_reflects_imbalance():
    pool = ThreadPool(4, scheduler="work-stealing")
    for _ in range(20):
        pool.submit(lambda: ctx.add_cost(1.0), worker=0)  # all on worker 0
    pool.run_all()
    assert pool.steals >= 10  # most tasks must migrate
