"""Cross-feature integration: the subsystems composed, as a user would."""

import operator

import numpy as np
import pytest

from repro.containers import PartitionedVector
from repro.runtime import Runtime, perfcounters
from repro.runtime.actions import action
from repro.observability.tracer import Tracer
from repro.stencil import (
    DistributedHeat1D,
    Heat1DParams,
    analytic_heat_profile,
    heat1d_reference,
    l2_error,
)


@action(name="combo.norm2")
def norm2_segment(data):
    return float(np.dot(data, data))


def test_vector_migration_during_active_use():
    """Migrate segments while a computation keeps reading them."""
    with Runtime(machine="a64fx", n_localities=3, workers_per_locality=2) as rt:
        vec = PartitionedVector(rt, 12, initial=np.arange(12.0))

        def main():
            totals = []
            for round_ in range(3):
                vec.migrate_segment(round_, (round_ + 1) % 3)
                totals.append(vec.reduce("combo.norm2", operator.add, 0.0))
            return totals

        totals = rt.run(main)
    expected = float(np.dot(np.arange(12.0), np.arange(12.0)))
    assert totals == [pytest.approx(expected)] * 3


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
