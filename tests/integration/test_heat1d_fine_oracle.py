"""Exact counters of the ``heat1d_fine`` benchmark shape, in tier-1.

``bench/`` checks the same numbers (``bench/expected.json``), but only
for the default scheduler and outside the tier-1 suite.  A change to the
thread, future, parcel or AGAS layers that alters the task graph, the
number or size of parcels, or the virtual schedule shows here first --
a performance change must leave all of them where they are.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import Config
from repro.runtime.perfcounters import query
from repro.runtime.runtime import Runtime
from repro.stencil.heat1d import DistributedHeat1D, Heat1DParams, heat1d_reference

NX, PARTS_PER_LOCALITY, STEPS = 4096, 16, 10
LOCAL_NX = NX // (2 * PARTS_PER_LOCALITY)

#: Set-up plus one op: (HPX-threads executed, virtual makespan).  The
#: schedule -- and with it how many continuations find their inputs
#: ready -- belongs to the scheduler; the traffic does not.
SCHEDULES = {
    "work-stealing": (1073, 1.0623999999999995e-05),
    "fifo": (1025, 1.0239999999999997e-05),
    "static": (1084, 1.1007999999999994e-05),
}
#: Bytes: per parcel, 64 of modelled header plus the pickled
#: ``(action, args, kwargs)`` body.
PARCELS_SENT, PARCEL_BYTES = 736, 84_448


@pytest.mark.parametrize("scheduler", sorted(SCHEDULES))
def test_counters_of_setup_plus_one_op_are_exact(scheduler):
    tasks, makespan = SCHEDULES[scheduler]
    config = Config(threads__scheduler=scheduler)
    field = np.random.default_rng(1).random(NX)
    with Runtime(n_localities=2, workers_per_locality=2, config=config) as rt:
        solver = DistributedHeat1D(
            rt,
            NX,
            Heat1DParams(),
            partitions_per_locality=PARTS_PER_LOCALITY,
            cost_per_step=LOCAL_NX * 1e-9,
        )
        solver.initialize(field)
        out = rt.run(lambda: solver.run(STEPS))
        assert query(rt, "/threads{total}/count/cumulative") == tasks
        assert query(rt, "/parcels{total}/count/sent") == PARCELS_SENT
        assert query(rt, "/parcels{total}/data/sent") == PARCEL_BYTES
        assert rt.makespan == makespan
        assert all(not loc.pool.failures for loc in rt.localities)
    assert np.array_equal(out, heat1d_reference(field, STEPS, Heat1DParams()))
