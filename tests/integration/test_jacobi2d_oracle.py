"""Exact counters of a small row-block Jacobi, in tier-1.

The twin of ``test_heat1d_fine_oracle.py`` for the other instantiation
of the halo-exchange protocol (:mod:`repro.stencil.halo`): open row
blocks instead of a periodic ring, 512-byte NumPy rows instead of scalar
halos.  A change to the shared partition/driver code that alters the
task graph, the number or size of parcels, or the virtual schedule of
*this* topology shows here -- the heat1d oracle cannot see a mistake in
how boundary (``None``) neighbours are handled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import Config
from repro.runtime.perfcounters import query
from repro.runtime.runtime import Runtime
from repro.stencil.jacobi2d import jacobi_reference_step
from repro.stencil.jacobi2d_dist import DistributedJacobi2D

NY, NX, PARTS_PER_LOCALITY, STEPS = 66, 64, 2, 6

#: Set-up plus one op: (HPX-threads executed, virtual makespan).  The
#: schedule belongs to the scheduler; the traffic does not.
SCHEDULES = {
    "work-stealing": (71, 1.1264000000000003e-05),
    "fifo": (71, 9.216000000000001e-06),
    "static": (73, 1.0240000000000002e-05),
}
#: Inter-locality parcels only: halo rows between blocks of one locality
#: are handed over as tasks.
PARCELS_SENT, PARCEL_BYTES = 16, 10_836


@pytest.mark.parametrize("scheduler", sorted(SCHEDULES))
def test_counters_of_setup_plus_one_op_are_exact(scheduler):
    tasks, makespan = SCHEDULES[scheduler]
    config = Config(threads__scheduler=scheduler)
    field = np.random.default_rng(1).random((NY, NX))
    with Runtime(n_localities=2, workers_per_locality=2, config=config) as rt:
        solver = DistributedJacobi2D(
            rt,
            NY,
            NX,
            partitions_per_locality=PARTS_PER_LOCALITY,
            cost_per_step=(NY - 2) * NX * 1e-9 / (2 * PARTS_PER_LOCALITY),
        )
        solver.initialize(field)
        out = rt.run(lambda: solver.run(STEPS))
        measured = (
            query(rt, "/threads{total}/count/cumulative"),
            query(rt, "/parcels{total}/count/sent"),
            query(rt, "/parcels{total}/data/sent"),
            rt.makespan,
        )
        assert all(not loc.pool.failures for loc in rt.localities)
    assert measured == (tasks, PARCELS_SENT, PARCEL_BYTES, makespan)
    expected = field
    for _ in range(STEPS):
        expected = jacobi_reference_step(expected)
    assert np.array_equal(out, expected)
