"""Tests for the Jacobi residual and convergence to the dense solution."""

import numpy as np

from repro.stencil import Jacobi2D, jacobi_dense_solution, max_error


def hot_top(ny, nx):
    field = np.zeros((ny, nx))
    field[0, :] = 1.0
    return field


def test_residual_decreases_monotonically_in_the_tail():
    solver = Jacobi2D(12, 12, np.float64)
    solver.initialize(hot_top(12, 12))
    residuals = []
    for _ in range(6):
        solver.run(50)
        residuals.append(solver.residual())
    assert residuals == sorted(residuals, reverse=True)


def test_residual_zero_for_fixed_point():
    field = hot_top(8, 8)
    solver = Jacobi2D(8, 8, np.float64)
    solver.initialize(jacobi_dense_solution(field))
    assert solver.residual() < 1e-14


def test_fixed_steps_reach_dense_solution():
    field = hot_top(10, 10)
    solver = Jacobi2D(10, 10, np.float64)
    solver.initialize(field)
    out = solver.run(400)
    assert solver.residual() < 1e-10
    assert max_error(out, jacobi_dense_solution(field)) < 1e-7
