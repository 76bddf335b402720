"""DES cross-check for the 2D stencil: run the *actual* row-parallel
solver on a virtual-time pool shaped like each machine and verify the
makespan against the analytic model.

The analytic model says a full sweep costs ``rows x cost_per_row / P``;
the DES runs Listing 2's ``for_each`` over rows with per-row costs and
real scheduling, so chunking and load-balance effects are measured, not
assumed.  Numerics run on a scaled-down grid -- only the costs are
paper-scale.
"""

import numpy as np
import pytest

from repro.hardware import machine
from repro.perf import stencil2d_glups
from repro.runtime import Runtime, par
from repro.stencil import Jacobi2D

ROWS, COLS, STEPS = 64, 34, 4


@pytest.mark.parametrize("name", ["xeon-e5-2660v3", "a64fx"])
def test_des_2d_matches_analytic_rate(name):
    m = machine(name)
    workers = 8  # scaled-down node
    glups = stencil2d_glups(m, np.float32, "simd", workers)
    # Cost of one row update at the modelled rate.
    cost_per_row = (COLS - 2) / (glups * 1e9) * 1e6  # scaled x1e6 to make
    # virtual times O(0.1s) -- pure scaling, cancels in the comparison.

    with Runtime(n_localities=1, workers_per_locality=workers) as rt:
        solver = Jacobi2D(ROWS, COLS, np.float32, cost_per_row=cost_per_row)
        solver.initialize()
        rt.run(lambda: solver.run(STEPS, par))
        makespan = rt.makespan
    interior_rows = ROWS - 2
    ideal = STEPS * interior_rows * cost_per_row / workers
    efficiency = ideal / makespan
    print(
        f"DES 2D cross-check on {m.spec.name}: virtual makespan "
        f"{makespan:.4f}s vs ideal {ideal:.4f}s "
        f"(parallel efficiency {efficiency:.0%}, {workers} workers, "
        f"{interior_rows} rows x {STEPS} steps)"
    )
    # Rows don't divide evenly into worker chunks; allow quantisation
    # loss but no more.
    assert 0.80 <= efficiency <= 1.0


def test_des_2d_chunking_effects():
    """Oversized chunks serialize rows; the auto-partitioner does not."""
    workers = 8
    cost_per_row = 1.0

    def makespan_with(policy) -> float:
        with Runtime(n_localities=1, workers_per_locality=workers) as rt:
            solver = Jacobi2D(ROWS, COLS, np.float32, cost_per_row=cost_per_row)
            solver.initialize()
            rt.run(lambda: solver.run(1, policy))
            return rt.makespan

    auto = makespan_with(par)
    giant_chunks = makespan_with(par.with_chunk_size(ROWS))  # one chunk
    ideal = (ROWS - 2) * cost_per_row / workers
    assert auto <= ideal * 1.25
    assert giant_chunks == pytest.approx((ROWS - 2) * cost_per_row)  # serial


def test_des_2d_results_stay_correct_under_costing():
    """Attaching costs must not perturb the numerics."""
    plain = Jacobi2D(16, 18, np.float64)
    plain.initialize()
    expected = plain.run(10)
    with Runtime(n_localities=1, workers_per_locality=4) as rt:
        costed = Jacobi2D(16, 18, np.float64, cost_per_row=1.0)
        costed.initialize()
        out = rt.run(lambda: costed.run(10, par))
    assert np.array_equal(out, expected)
