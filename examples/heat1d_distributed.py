#!/usr/bin/env python3
"""The paper's distributed 1D heat-equation study (Fig 3), end to end.

Runs the *actual* futurized solver -- partition components, halo parcels,
dataflow chains -- on virtual clusters of 1..8 nodes for two machines
(Intel Xeon E5-2660 v3 and Kunpeng 916), with per-step compute costs
taken from the calibrated machine models.  Verifies the numerics against
the NumPy reference, then prints the strong-scaling table next to the
analytic cost model's Fig 3 numbers.

Run:  python examples/heat1d_distributed.py
"""

from repro.hardware import machine
from repro.perf.cost import (
    STRONG_SCALING_POINTS,
    stencil1d_node_glups,
    stencil1d_time,
)
from repro.reporting import format_table
from repro.runtime import Runtime
from repro.stencil import (
    DistributedHeat1D,
    Heat1DParams,
    analytic_heat_profile,
    heat1d_reference,
    l2_error,
)

STEPS = 50
POINTS = 1024  # numerics run at laptop scale; *costs* are the paper's


def simulate(machine_name: str, n_nodes: int) -> tuple[float, float]:
    """Run the solver on a virtual ``n_nodes`` cluster.

    Returns (virtual makespan, numerical error vs the NumPy reference).
    """
    m = machine(machine_name)
    # Per-step per-partition cost from the calibrated per-node rate, as
    # if each node carried its share of the paper's 1.2e9 points.
    local_points = STRONG_SCALING_POINTS // n_nodes
    rate = stencil1d_node_glups(m) * 1e9
    cost_per_step = local_points / rate + m.calibration.per_step_overhead_s

    u0 = analytic_heat_profile(POINTS)
    with Runtime(machine=machine_name, n_localities=n_nodes, workers_per_locality=2) as rt:
        solver = DistributedHeat1D(
            rt, POINTS, Heat1DParams(), cost_per_step=cost_per_step
        )
        solver.initialize(u0)
        result = rt.run(lambda: solver.run(STEPS))
        makespan = rt.makespan
    error = l2_error(result, heat1d_reference(u0, STEPS, Heat1DParams()))
    return makespan, error


def main() -> None:
    nodes = (1, 2, 4, 8)
    for name in ("xeon-e5-2660v3", "kunpeng916"):
        m = machine(name)
        rows = []
        t1 = None
        for n in nodes:
            makespan, error = simulate(name, n)
            assert error < 1e-12, f"numerical verification failed: {error}"
            t1 = t1 if t1 is not None else makespan
            # Scale the analytic Fig 3 prediction to this run's 50 steps.
            model = stencil1d_time(m, n) * STEPS / 100
            rows.append(
                [
                    n,
                    f"{makespan:.2f}",
                    f"{t1 / makespan:.2f}x",
                    f"{model:.2f}",
                    f"{error:.1e}",
                ]
            )
        print(f"\n{m.spec.name} -- strong scaling, {STEPS} steps "
              f"(virtual seconds; numerics verified against NumPy)")
        print(
            format_table(
                ["nodes", "simulated", "speedup", "analytic model", "L2 error"],
                rows,
            )
        )
    print(
        "\nNote the Kunpeng 916 rows: its parcelport cannot progress "
        "communication in the background (Sec. VII-A), so halo latency "
        "eats directly into each step -- the paper's scaling failure."
    )


if __name__ == "__main__":
    main()
