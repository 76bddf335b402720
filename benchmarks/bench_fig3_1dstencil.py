"""Fig 3: distributed 1D stencil, strong and weak scaling.

Part (a) regenerates the figure from the cost model and asserts the
paper's headline numbers.  Part (b) *runs the actual distributed
application* on the virtual-time runtime (scaled-down point counts, the
paper's per-step cost injected from the model) and checks that the
simulated makespans reproduce the same scaling shape -- the functional
runtime and the analytic model must agree.
"""

import pytest

from repro.exhibits import fig3_1d_scaling, render_fig3
from repro.hardware import machine
from repro.observability import collect_metrics, latency_histograms
from repro.perf.cost import (
    STRONG_SCALING_POINTS,
    scaling_factor,
    stencil1d_node_glups,
    stencil1d_time,
)
from repro.runtime import Runtime
from repro.observability.tracer import Tracer
from repro.stencil import DistributedHeat1D, Heat1DParams, analytic_heat_profile


def test_fig3_exhibit(benchmark, save_exhibit):
    data = benchmark(fig3_1d_scaling)
    assert set(data) == {"strong", "weak"}
    save_exhibit("fig3_1dstencil", render_fig3())


def test_fig3_paper_values(benchmark):
    xeon = machine("xeon-e5-2660v3")
    a64fx = machine("a64fx")
    factor = benchmark(scaling_factor, xeon, 8)
    assert factor == pytest.approx(7.36, rel=0.02)
    assert stencil1d_time(xeon, 1) == pytest.approx(28.0, rel=0.05)
    assert stencil1d_time(a64fx, 8) == pytest.approx(2.5, rel=0.05)


@pytest.mark.parametrize("name", ["xeon-e5-2660v3", "kunpeng916"])
def test_fig3_runtime_simulation_matches_model_shape(
    benchmark, name, save_exhibit, save_metrics
):
    """Drive the real futurized solver at 1 and 4 virtual nodes and check
    the virtual-time speedup against the analytic model."""
    m = machine(name)
    # Enough steps to amortise the chain-construction transient (the
    # staggered start_chain parcels offset the partitions by a few
    # network delays before the ring settles into its periodic regime).
    steps = 60
    points = 512  # numerical grid is tiny; *costs* are the real ones

    metrics: dict = {}

    def simulate(n_nodes: int) -> float:
        # Per-partition per-step cost from the calibrated node rate.
        local_points = STRONG_SCALING_POINTS // n_nodes
        rate = stencil1d_node_glups(m) * 1e9
        cost_per_step = local_points / rate + m.calibration.per_step_overhead_s
        tracer = Tracer()
        with Runtime(machine=m.name, n_localities=n_nodes, workers_per_locality=2) as rt:
            solver = DistributedHeat1D(
                rt, points, Heat1DParams(), cost_per_step=cost_per_step
            )
            solver.initialize(analytic_heat_profile(points))
            with tracer.attach(rt):
                rt.run(lambda: solver.run(steps))
            metrics["counters"] = collect_metrics(rt)["counters"]
            metrics["histograms"] = latency_histograms(tracer)
            return rt.makespan

    t1 = simulate(1)
    t4 = benchmark.pedantic(simulate, args=(4,), rounds=1, iterations=1)
    simulated_speedup = t1 / t4
    model_speedup = stencil1d_time(m, 1, total_points=STRONG_SCALING_POINTS) / (
        stencil1d_time(m, 4, total_points=STRONG_SCALING_POINTS)
    )
    # Same *shape*: Kunpeng far from linear, Xeon close to linear.
    assert simulated_speedup == pytest.approx(model_speedup, rel=0.35)
    if name == "kunpeng916":
        assert simulated_speedup < 3.5
    else:
        assert simulated_speedup > 3.0
    save_exhibit(
        f"fig3_runtime_{name}",
        f"{m.spec.name}: DES speedup(4 nodes) = {simulated_speedup:.2f} "
        f"(analytic model: {model_speedup:.2f}) over {steps} steps",
    )
    save_metrics(
        f"fig3_runtime_{name}",
        counters=metrics["counters"],
        histograms=metrics["histograms"],
        meta={"machine": name, "nodes": 4, "steps": steps},
    )
