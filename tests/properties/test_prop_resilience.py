"""Property: seeded faults + transparent retry never change the numerics.

For any fault seed, drop rate (within the retryable regime) and step
count, the distributed heat solver on a lossy substrate must produce a
solution bit-identical to the fault-free reference -- losses cost
virtual time, never correctness.

The drawn drop rate includes zero and rates too small to hit the few
parcels of a short run, so the properties cannot demand that a fault
landed; ``test_top_of_the_drawn_range_drops_parcels`` checks, from the
parcelport's counters, that the substrate they run on does drop.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import Config
from repro.resilience import FaultInjector
from repro.runtime.runtime import Runtime
from repro.stencil.heat1d import DistributedHeat1D, Heat1DParams, heat1d_reference

NX = 32
U0 = np.cos(np.linspace(0.0, 2.0 * np.pi, NX, endpoint=False))
SCHEDULERS = ("work-stealing", "static", "fifo")


def _faulty_run(seed, drop_rate, steps):
    """(solution, parcels dropped) of a heat run on a lossy substrate."""
    with Runtime(
        machine="xeon-e5-2660v3",
        n_localities=2,
        workers_per_locality=1,
        fault_injector=FaultInjector(seed=seed, drop_rate=drop_rate),
    ) as rt:
        solver = DistributedHeat1D(rt, NX, Heat1DParams())
        solver.initialize(U0)
        return solver.run(steps), rt.parcelport.parcels_dropped


def test_top_of_the_drawn_range_drops_parcels():
    solution, dropped = _faulty_run(seed=0, drop_rate=0.15, steps=20)
    assert dropped > 0
    assert np.array_equal(solution, heat1d_reference(U0, 20, Heat1DParams()))


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    drop_rate=st.floats(min_value=0.0, max_value=0.15),
    steps=st.integers(min_value=1, max_value=20),
)
def test_faulty_run_is_bit_identical_to_reference(seed, drop_rate, steps):
    faulty, _ = _faulty_run(seed, drop_rate, steps)
    assert np.array_equal(faulty, heat1d_reference(U0, steps, Heat1DParams()))


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    drop_rate=st.floats(min_value=0.0, max_value=0.15),
)
def test_same_seed_same_solution_and_no_dead_letters(seed, drop_rate):
    a, dropped_a = _faulty_run(seed, drop_rate, steps=10)
    b, dropped_b = _faulty_run(seed, drop_rate, steps=10)
    assert np.array_equal(a, b)
    assert dropped_a == dropped_b


# Permanent crashes + checkpoint restart --------------------------------------


def _resilient_solution(scheduler, crash_locality, crash_time, steps, every):
    """Heat solver on 4 localities with one permanent mid-run crash."""
    injector = None
    if crash_locality is not None:
        injector = FaultInjector(seed=11)
        injector.fail_locality(crash_locality, at=crash_time, permanent=True)
    with Runtime(
        machine="xeon-e5-2660v3",
        n_localities=4,
        workers_per_locality=1,
        config=Config(threads__scheduler=scheduler),
        fault_injector=injector,
    ) as rt:
        solver = DistributedHeat1D(rt, NX, Heat1DParams(), cost_per_step=1e-3)
        solver.initialize(U0)
        if injector is None:
            return solver.run(steps)
        return solver.run_resilient(steps, checkpoint_every=every)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@settings(max_examples=8, deadline=None)
@given(
    crash_locality=st.integers(min_value=1, max_value=3),
    crash_time=st.floats(min_value=1e-4, max_value=2e-2),
    steps=st.integers(min_value=4, max_value=16),
    every=st.integers(min_value=0, max_value=8),
)
def test_permanent_crash_restart_is_bit_identical(
    scheduler, crash_locality, crash_time, steps, every
):
    """For any crash site/time, epoch length and scheduler, checkpoint
    restart reproduces the fault-free solution bit for bit."""
    clean = _resilient_solution(scheduler, None, 0.0, steps, every)
    crashed = _resilient_solution(scheduler, crash_locality, crash_time, steps, every)
    assert np.array_equal(crashed, clean)
    assert np.array_equal(clean, heat1d_reference(U0, steps, Heat1DParams()))
