"""Deterministic guards on the runtime's per-task overhead and on the
job service's local kernel.

Wall time on a shared host is not a gate (PR 14 measured the old 25 %
wall gate failing on an unchanged tree); the number of function calls
the interpreter makes is.  One warm op of the ``heat1d_fine`` benchmark
shape (2 localities x 2 workers, 32 partitions of 128 points, 10 steps:
about 1 000 HPX-threads, 640 halo deposits of which 600 are local tasks,
and 56 parcels) is run under ``sys.setprofile`` and
every Python call and C call is counted; the kernel is three NumPy
calls per partition step, so the count is almost purely scheduler,
future, LCO, parcel and AGAS plumbing.

Budget: **65.5 calls per HPX-thread**, 10 % above the 59.5 this tree
makes (59 741 calls / 1 004 threads on CPython 3.11; 66.8 before a
component action on its caller's own locality became a posted task
instead of a parcel; 67.5 before a
demanded future went into its job's plain table instead of a process-wide
weak registry; 67.2 before the heat1d step went halo-padded, two more calls per partition step; 68.1
before the parcel body lost its GID and the ``dataflow`` link became one
object, 97.0 before the entry-handle / detached-thread / single-scan
change).  The
count is exact for a given interpreter version and moves by a few calls
between versions, which the slack absorbs.  If the test fails, a change
added calls to the per-task or per-parcel path: find them with

    PYTHONPATH=src python -m pytest tests/perf/test_pf_call_budget.py -s

(the measured figure is printed), then either remove them or -- when
they buy something -- raise the budget here, to 10 % above the new
figure, in the same change and say so in CHANGES.md.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.runtime.perfcounters import query
from repro.runtime.runtime import Runtime
from repro.service.executor import JobRunner
from repro.stencil.heat1d import DistributedHeat1D, Heat1DParams
from repro.stencil.validation import analytic_heat_profile

CALLS_PER_TASK_BUDGET = 65.5
LOCAL_CALLS_PER_STEP_BUDGET = 0.25


def _count_calls(fn) -> int:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def test_calls_per_hpx_thread_stay_within_budget():
    nx, parts, steps = 4096, 16, 10
    with Runtime(n_localities=2, workers_per_locality=2) as rt:
        solver = DistributedHeat1D(
            rt, nx, Heat1DParams(), partitions_per_locality=parts, cost_per_step=128e-9
        )
        solver.initialize(np.random.default_rng(1).random(nx))

        def op():
            rt.run(lambda: solver.run(steps))

        op()  # warm: the first op also builds the ring and seeds the halos
        tasks_before = query(rt, "/threads{total}/count/cumulative")
        calls = _count_calls(op)
        tasks = query(rt, "/threads{total}/count/cumulative") - tasks_before
    per_task = calls / tasks
    print(f"\n{calls} calls / {tasks:.0f} HPX-threads = {per_task:.1f} calls per thread")
    assert per_task <= CALLS_PER_TASK_BUDGET, (
        f"{per_task:.1f} calls per HPX-thread exceeds the budget of "
        f"{CALLS_PER_TASK_BUDGET}: see this module's docstring"
    )


def test_local_job_kernel_calls_per_step_stay_within_budget(tmp_path):
    """One warm local epoch of the ``service_jobs`` job shape (nx = 256,
    40 steps) through the executor's own segment runner.

    Budget: **0.25 calls per step**, about 10 % above the 0.225 this
    tree makes (9 calls / 40 steps: the field is padded once and all
    40 steps run inside one ``_heat_steps`` call, so every call is per
    segment).  It was 3 calls per step while each step called
    ``_update_interior`` and its ``np.empty_like`` (2.15, 86 calls); the
    ``np.roll`` oracle makes 34 per step, so a local job that slides
    back onto either fails here.  If the test fails, find the new calls with
    ``pytest tests/perf/test_pf_call_budget.py -s`` (the figure is
    printed), then either remove them or -- when they buy something --
    raise the budget here, to 10 % above the new figure, in the same
    change and say so in CHANGES.md.
    """
    nx, steps = 256, 40
    runner = JobRunner(tmp_path)
    field = analytic_heat_profile(nx, mode=3)
    heat = Heat1DParams()

    def segment():
        runner._run_segment(field, steps, heat, 2, 1, False)

    segment()  # warm
    calls = _count_calls(segment)
    per_step = calls / steps
    print(f"\n{calls} calls / {steps} steps = {per_step:.2f} calls per local job step")
    assert per_step <= LOCAL_CALLS_PER_STEP_BUDGET, (
        f"{per_step:.2f} calls per local job step exceeds the budget of "
        f"{LOCAL_CALLS_PER_STEP_BUDGET}: see this test's docstring"
    )
