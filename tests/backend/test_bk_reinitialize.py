"""A second ``initialize()`` starts a new run -- on both backends.

The multiprocess driver cannot read ``part.steps_done`` across a process
boundary, so it keeps its own absolute step count and asks every
partition for ``chain_result(count + steps)``.  A count that survives
re-initialisation makes ``initialize(); run(10); initialize(); run(5)``
return the 15-step field there and the 5-step field on the virtual
backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import Config
from repro.runtime.runtime import Runtime
from repro.stencil.heat1d import DistributedHeat1D, Heat1DParams, heat1d_reference
from repro.stencil.jacobi2d import jacobi_reference_step
from repro.stencil.jacobi2d_dist import DistributedJacobi2D

_BACKENDS = {
    "virtual": None,
    "multiprocess": Config.from_mapping({"runtime.backend": "multiprocess"}),
}


def _heat1d(rt):
    u0 = np.random.default_rng(7).random(64)
    solver = DistributedHeat1D(rt, 64, Heat1DParams(), partitions_per_locality=2)
    return solver, u0, heat1d_reference(u0, 5, Heat1DParams())


def _jacobi2d(rt):
    field = np.random.default_rng(7).random((18, 12))
    solver = DistributedJacobi2D(rt, 18, 12, partitions_per_locality=2)
    expected = field
    for _ in range(5):
        expected = jacobi_reference_step(expected)
    return solver, field, expected


@pytest.mark.parametrize("backend", sorted(_BACKENDS))
@pytest.mark.parametrize("app", [_heat1d, _jacobi2d])
def test_second_initialize_starts_a_new_run(app, backend):
    with Runtime(
        n_localities=2, workers_per_locality=1, config=_BACKENDS[backend]
    ) as rt:
        solver, field, expected = app(rt)
        solver.initialize(field)
        solver.run(10)
        solver.initialize(field)
        out = solver.run(5)
    assert np.array_equal(out, expected)
