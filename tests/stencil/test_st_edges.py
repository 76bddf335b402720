"""Edge-branch coverage for the stencil components.

Per-class cases (the two refusals both classes make are parametrised
over both); the protocol both partition classes share is checked once,
parametrised over both, in ``test_st_halo_protocol.py``.
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.runtime import Runtime
from repro.stencil import Heat1DParams, Heat1DPartition
from repro.stencil.jacobi2d_dist import Jacobi2DPartition


def _heat():
    return Heat1DPartition(np.zeros(4), Heat1DParams())


def _jacobi():
    return Jacobi2DPartition(np.zeros((3, 5)))


@pytest.mark.parametrize(
    "deposit_on_bad_side",
    [
        pytest.param(lambda: _heat().deposit_halo(0, "north", 1.0), id="heat"),
        pytest.param(
            lambda: _jacobi().deposit_halo_row(0, "left", np.zeros(5)), id="jacobi"
        ),
    ],
)
def test_partition_rejects_bad_halo_side(deposit_on_bad_side):
    with pytest.raises(ValidationError):
        deposit_on_bad_side()


@pytest.mark.parametrize(
    "make, self_ring, step, halo",
    [
        pytest.param(_heat, True, 3, 0.0, id="heat"),
        pytest.param(_jacobi, False, 2, None, id="jacobi"),  # global boundary
    ],
)
def test_partition_rejects_out_of_order_advance(make, self_ring, step, halo):
    part = make()
    with Runtime(n_localities=1, workers_per_locality=1) as rt:
        gid = rt.new_component(part)
        neighbour = gid if self_ring else None
        part.connect(rt, neighbour, neighbour)
        with pytest.raises(ValidationError):
            rt.run(lambda: part.advance(step, halo, halo))


def test_heat_partition_requires_connection():
    part = Heat1DPartition(np.zeros(4), Heat1DParams())
    with pytest.raises(ValidationError):
        part.send_boundaries(0)


def test_jacobi_partition_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        Jacobi2DPartition(np.zeros((2, 5)))
    with pytest.raises(ValidationError):
        Jacobi2DPartition(np.zeros(5))


def test_boundary_partition_halo_futures_always_ready():
    part = Jacobi2DPartition(np.zeros((4, 5)))
    with Runtime(n_localities=1, workers_per_locality=1) as rt:
        rt.new_component(part)
        part.connect(rt, None, None)  # both sides are global boundary
        assert part.halo_future(0, "up").is_ready()
        assert part.halo_future(7, "down").is_ready()


def test_heat_partition_local_solution_is_a_copy():
    data = np.arange(4.0)
    part = Heat1DPartition(data, Heat1DParams())
    out = part.local_solution()
    out[0] = 99.0
    assert part.local_solution()[0] == 0.0


def test_params_stability_boundary_exact():
    """k = 0.5 is the last stable value."""
    Heat1DParams(alpha=1.0, dt=0.5, dx=1.0).check_stability()
    with pytest.raises(ValidationError):
        Heat1DParams(alpha=1.0, dt=0.5000001, dx=1.0).check_stability()
