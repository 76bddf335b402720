"""Detached HPX-threads (``ThreadPool.post``, ``hpx::post`` semantics).

A posted task has no promise: nothing is allocated for a result nobody
can read.  Everything else about it -- scheduling, counting, failure
reporting, probe events -- is that of a submitted task.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import analysis
from repro.errors import BrokenPromiseError, RuntimeStateError
from repro.runtime import instrument
from repro.runtime.futures import Promise
from repro.runtime.runtime import Runtime
from repro.runtime.threads import hpx_thread
from repro.runtime.threads.pool import ThreadPool
from repro.stencil.heat1d import DistributedHeat1D, Heat1DParams
from repro.stencil.jacobi2d_dist import DistributedJacobi2D
from repro.stencil.validation import analytic_heat_profile


@pytest.fixture
def promises_made(monkeypatch):
    """Every Promise the HPX-thread layer allocates while the test runs."""
    made = []

    class CountedPromise(Promise):
        __slots__ = ()

        def __init__(self) -> None:
            super().__init__()
            made.append(self)

    monkeypatch.setattr(hpx_thread, "Promise", CountedPromise)
    return made


def _fail(a, b, *, why):
    raise ValueError(f"{a}-{b}-{why}")


def test_raising_detached_task_lands_in_failures_and_allocates_no_promise(promises_made):
    pool = ThreadPool(2)
    assert pool.post(_fail, 1, 2, kwargs={"why": "x"}, description=("job#%d", 7)) is None
    assert pool.pending() == 1
    pool.run_all()
    assert promises_made == []
    [(task, exc)] = pool.failures
    assert isinstance(exc, ValueError) and str(exc) == "1-2-x"
    assert (task.fn, task.args, task.kwargs) == (_fail, (1, 2), {"why": "x"})
    assert task.description == "job#7"
    assert task.promise is None
    with pytest.raises(RuntimeStateError, match="detached"):
        task.get_future()
    assert pool.tasks_executed == 1

    future = pool.submit(_fail, 3, 4, kwargs={"why": "y"})
    assert len(promises_made) == 1
    pool.run_all()
    with pytest.raises(ValueError, match="3-4-y"):
        future.get()
    assert len(pool.failures) == 2


def test_detached_task_runs_and_is_counted_like_a_submitted_one():
    pool = ThreadPool(2)
    seen = []
    pool.post(seen.append, "posted", ready_time=2.0)
    pool.submit(seen.append, "submitted")
    assert pool.peak_pending == 2
    pool.run_all()
    assert sorted(seen) == ["posted", "submitted"]
    assert pool.tasks_executed == 2
    assert pool.makespan == 2.0


def test_discard_pending_breaks_only_the_promised_tasks():
    pool = ThreadPool(2)
    ran = []
    pool.post(ran.append, "a")
    kept = [pool.submit(ran.append, "b"), pool.submit(ran.append, "c")]
    pool.post(ran.append, "d")
    assert pool.discard_pending() == 4
    assert pool.pending() == 0 and ran == []
    for future in kept:
        assert future.is_ready()
        with pytest.raises(BrokenPromiseError):
            future.get()
    assert pool.failures == []


class _Lifecycle(instrument.Probe):
    def __init__(self) -> None:
        self.created: set[int] = set()
        self.started: set[int] = set()
        self.finished: set[int] = set()
        self.detached: set[int] = set()

    def task_created(self, parent, task) -> None:
        self.created.add(task.tid)
        if task.promise is None:
            self.detached.add(task.tid)

    def task_started(self, task) -> None:
        self.started.add(task.tid)

    def task_finished(self, task) -> None:
        self.finished.add(task.tid)


def _heat1d(rt):
    solver = DistributedHeat1D(
        rt, 64, Heat1DParams(), partitions_per_locality=2, cost_per_step=1.0
    )
    solver.initialize(analytic_heat_profile(64))
    return solver


def _jacobi2d(rt):
    solver = DistributedJacobi2D(rt, ny=6, nx=5)
    field = np.zeros((6, 5))
    field[0, :] = 1.0
    solver.initialize(field)
    return solver


@pytest.mark.parametrize("make_solver", [_heat1d, _jacobi2d], ids=["heat1d", "jacobi2d"])
def test_stencils_stay_clean_under_the_sanitizers_and_probes_see_detached_tasks(make_solver):
    lifecycle = _Lifecycle()
    instrument.install(lifecycle)
    try:
        # Raises DataRaceError / DeadlockError on a finding.
        with analysis.attach() as sanitizers:
            with Runtime(n_localities=2, workers_per_locality=2) as rt:
                solver = make_solver(rt)
                result = rt.run(lambda: solver.run(3))
            assert sanitizers.race.findings() == []
    finally:
        instrument.uninstall(lifecycle)
    assert np.isfinite(result).all()
    # Parcel handlers and dataflow bodies are the bulk of the job, and
    # every one of them was announced, started and finished.
    assert len(lifecycle.detached) > len(lifecycle.created) // 2
    assert lifecycle.created == lifecycle.started == lifecycle.finished
    assert sum(len(loc.pool.failures) for loc in rt.localities) == 0
