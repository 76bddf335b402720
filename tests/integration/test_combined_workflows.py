"""Cross-feature integration: the subsystems composed, as a user would."""

import operator

import numpy as np
import pytest

from repro.containers import PartitionedVector
from repro.runtime import Runtime, collectives, perfcounters, when_all
from repro.runtime.actions import action
from repro.runtime.lco import RemoteChannel
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


def test_remote_channel_feeding_a_reduction():
    """Producer localities stream into a hosted channel; a consumer
    folds -- the pipeline pattern across three features."""
    with Runtime(machine="thunderx2", n_localities=3, workers_per_locality=2) as rt:
        channel = RemoteChannel.create(rt, locality_id=0, name="results")

        @action(name="combo.produce")
        def produce(gid_packed, base):
            from repro.runtime import context as ctx
            from repro.runtime.agas.gid import Gid

            runtime = ctx.current().runtime
            gid = Gid.unpack(gid_packed)
            for k in range(3):
                runtime.invoke(gid, "ch_set", base * 10 + k)
            return base

        def main():
            producers = [
                rt.async_at(loc, "combo.produce", channel.gid.pack(), loc)
                for loc in range(3)
            ]
            when_all(producers).get()
            values = sorted(channel.get_sync() for _ in range(9))
            return values

        values = rt.run(main)
    assert values == [0, 1, 2, 10, 11, 12, 20, 21, 22]


def test_collectives_over_solver_state():
    """A distributed max-reduction over per-locality solver chunks."""
    with Runtime(n_localities=4, workers_per_locality=1) as rt:
        solver = DistributedHeat1D(rt, 64, Heat1DParams())
        solver.initialize(analytic_heat_profile(64))
        rt.run(lambda: solver.run(5))

        def local_max():
            from repro.runtime import context as ctx

            loc = ctx.here().locality_id
            return float(np.max(np.abs(solver._parts[loc].local_solution())))

        # The solver objects are in-process; a registered action reads the
        # locality's own chunk.
        action(name="combo.local_max")(local_max)
        global_max = rt.run(
            lambda: collectives.all_reduce(rt, "combo.local_max", max)
        )
        direct = float(np.max(np.abs(solver.solution())))
    assert global_max == pytest.approx(direct)
