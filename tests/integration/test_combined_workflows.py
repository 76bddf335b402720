"""Cross-feature integration: the subsystems composed, as a user would."""

import pytest

from repro.runtime import Runtime, perfcounters
from repro.observability.tracer import Tracer
from repro.stencil import (
    DistributedHeat1D,
    Heat1DParams,
    analytic_heat_profile,
    heat1d_reference,
    l2_error,
)


def test_solver_plus_counters_plus_trace():
    """The Fig 3 solver observed through both introspection layers."""
    tracer = Tracer()
    with Runtime(machine="xeon-e5-2660v3", n_localities=2, workers_per_locality=2) as rt:
        solver = DistributedHeat1D(rt, 64, Heat1DParams(), cost_per_step=0.5)
        solver.initialize(analytic_heat_profile(64))
        with tracer.attach(rt):
            out = rt.run(lambda: solver.run(10))
        assert l2_error(out, heat1d_reference(analytic_heat_profile(64), 10, Heat1DParams())) < 1e-12
        executed = perfcounters.query(rt, "/threads{total}/count/cumulative")
        uptime = perfcounters.query(rt, "/runtime/uptime")
    assert executed == len(tracer.records)
    assert uptime == pytest.approx(tracer.makespan)
    assert uptime >= 10 * 0.5  # at least the sequential chain cost
