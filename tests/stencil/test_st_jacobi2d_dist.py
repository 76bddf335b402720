"""Tests for the distributed 2D Jacobi (row-block decomposition)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.runtime import Runtime
from repro.stencil import (
    DistributedJacobi2D,
    Jacobi2D,
    Jacobi2DPartition,
    jacobi_dense_solution,
    jacobi_reference_step,
    max_error,
)


def hot_top(ny, nx):
    field = np.zeros((ny, nx))
    field[0, :] = 1.0
    return field


def reference(field, steps):
    out = np.array(field, dtype=np.float64)
    for _ in range(steps):
        out = jacobi_reference_step(out)
    return out


def run_distributed(field, steps, n_localities, parts_per_loc=1, machine="xeon-e5-2660v3"):
    ny, nx = field.shape
    with Runtime(machine=machine, n_localities=n_localities, workers_per_locality=2) as rt:
        solver = DistributedJacobi2D(rt, ny, nx, partitions_per_locality=parts_per_loc)
        solver.initialize(field)
        out = rt.run(lambda: solver.run(steps))
        makespan = rt.makespan
    return out, makespan


def test_matches_reference_two_localities():
    field = hot_top(18, 12)
    out, _ = run_distributed(field, 20, 2)
    assert max_error(out, reference(field, 20)) < 1e-12


def test_matches_reference_four_localities_two_parts_each():
    field = np.random.default_rng(3).random((18, 10))
    out, _ = run_distributed(field, 15, 4, parts_per_loc=2)
    assert max_error(out, reference(field, 15)) < 1e-12


def test_matches_shared_memory_solver():
    field = hot_top(10, 14)
    distributed, _ = run_distributed(field, 12, 2)
    shared = Jacobi2D(10, 14, np.float64)
    shared.initialize(field)
    assert max_error(distributed, shared.run(12)) < 1e-12


def test_boundaries_stay_fixed():
    field = np.random.default_rng(5).random((10, 8))
    out, _ = run_distributed(field, 10, 2)
    assert np.array_equal(out[0, :], field[0, :])
    assert np.array_equal(out[-1, :], field[-1, :])
    assert np.allclose(out[:, 0], field[:, 0])
    assert np.allclose(out[:, -1], field[:, -1])


def test_single_locality_degenerate():
    field = hot_top(6, 6)
    out, _ = run_distributed(field, 8, 1)
    assert max_error(out, reference(field, 8)) < 1e-13


def test_network_time_accrues():
    field = hot_top(18, 8)
    _, makespan = run_distributed(field, 10, 4)
    assert makespan > 0.0


def test_fortran_ordered_field_gives_the_c_ordered_bytes():
    """The kernel walks a block as one flat C-ordered range, so the
    partition stores its block C-ordered whatever the input's layout."""
    field = np.random.default_rng(7).random((18, 12))
    c_out, _ = run_distributed(field, 9, 2)
    f_out, _ = run_distributed(np.asfortranarray(field), 9, 2)
    assert f_out.tobytes() == c_out.tobytes() == reference(field, 9).tobytes()


def test_partition_and_restore_store_a_fortran_block_c_ordered():
    block = np.asfortranarray(np.random.default_rng(2).random((5, 7)))
    part = Jacobi2DPartition(block)
    assert part.u.flags.c_contiguous and np.array_equal(part.u, block)
    part.restore_state(dict(part.checkpoint_state(), u=block))
    assert part.u.flags.c_contiguous and np.array_equal(part.u, block)


def test_zero_steps_identity():
    field = np.random.default_rng(7).random((6, 6))
    out, _ = run_distributed(field, 0, 2)
    assert np.allclose(out, field)


def test_residual_decreases_towards_fixed_point():
    field = hot_top(10, 10)
    with Runtime(n_localities=2, workers_per_locality=2) as rt:
        solver = DistributedJacobi2D(rt, 10, 10)
        solver.initialize(field)
        rt.run(lambda: solver.run(5))
        early = rt.run(solver.residual)
        rt.run(lambda: solver.run(200))
        late = rt.run(solver.residual)
    assert late < early / 10


def test_converges_to_dense_solution():
    field = hot_top(10, 10)
    with Runtime(n_localities=2, workers_per_locality=2) as rt:
        solver = DistributedJacobi2D(rt, 10, 10)
        solver.initialize(field)
        out = rt.run(lambda: solver.run(2500))
    assert max_error(out, jacobi_dense_solution(field)) < 1e-9


def test_validation():
    with Runtime(n_localities=3, workers_per_locality=1) as rt:
        with pytest.raises(ValidationError):
            DistributedJacobi2D(rt, 12, 8)  # 10 interior rows vs 3 parts
        solver = DistributedJacobi2D(rt, 14, 8)
        with pytest.raises(ValidationError):
            solver.run(3)  # not initialised
        with pytest.raises(ValidationError):
            solver.initialize(np.zeros((14, 9)))
        solver.initialize(np.zeros((14, 8)))
        with pytest.raises(ValidationError):
            solver.run(-1)
