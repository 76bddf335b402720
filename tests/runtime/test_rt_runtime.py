"""Integration tests for the Runtime: boot, run, components, parcels."""

import numpy as np
import pytest

from repro.config import Config
from repro.errors import RuntimeStateError
from repro.runtime import Runtime, async_, when_all
from repro.runtime.agas import Component
from repro.stencil.heat1d import DistributedHeat1D, Heat1DParams, heat1d_reference


def double(x):
    return 2 * x


def fail_remotely():
    raise RuntimeError("remote boom")


class Accumulator(Component):
    def __init__(self):
        super().__init__()
        self.total = 0

    def add(self, value):
        self.total += value
        return self.total

    def read(self):
        return self.total


def test_run_returns_value():
    with Runtime(workers_per_locality=2) as rt:
        assert rt.run(lambda: 123) == 123


def test_run_without_start_rejected():
    rt = Runtime()
    with pytest.raises(RuntimeStateError):
        rt.run(lambda: 1)


def test_double_start_rejected():
    rt = Runtime().start()
    try:
        with pytest.raises(RuntimeStateError):
            rt.start()
    finally:
        rt.stop()


def test_stop_without_start_rejected():
    with pytest.raises(RuntimeStateError):
        Runtime().stop()


def test_context_manager_cleans_up_on_error():
    with pytest.raises(ValueError):
        with Runtime() as rt:
            rt.run(lambda: 1)
            raise ValueError("user error")
    # A fresh runtime must boot fine afterwards (context stack intact).
    with Runtime() as rt:
        assert rt.run(lambda: 2) == 2


def test_machine_by_name_sets_workers():
    with Runtime(machine="xeon-e5-2660v3") as rt:
        assert rt.workers_per_locality == 20


def test_worker_count_validation():
    with pytest.raises(RuntimeStateError):
        Runtime(n_localities=0)
    with pytest.raises(RuntimeStateError):
        Runtime(workers_per_locality=0)
    with pytest.raises(RuntimeStateError):
        Runtime(machine="xeon-e5-2660v3", workers_per_locality=100)


def test_here_and_localities():
    with Runtime(n_localities=3, workers_per_locality=1) as rt:
        assert len(rt.localities) == 3
        assert rt.run(lambda: rt.here().locality_id) == 0
        with pytest.raises(RuntimeStateError):
            rt.locality(3)


def test_async_at_remote_locality():
    with Runtime(machine="xeon-e5-2660v3", n_localities=2, workers_per_locality=2) as rt:
        def main():
            return rt.async_at(1, double, 21).get()

        assert rt.run(main) == 42
        assert rt.parcelport.parcels_sent >= 1


def test_async_at_local_locality_loopback():
    with Runtime(n_localities=1, workers_per_locality=2) as rt:
        def main():
            return rt.async_at(0, double, 5).get()

        assert rt.run(main) == 10


def test_remote_exception_propagates():
    with Runtime(machine="a64fx", n_localities=2, workers_per_locality=2) as rt:
        def main():
            return rt.async_at(1, fail_remotely).get()

        with pytest.raises(RuntimeError, match="remote boom"):
            rt.run(main)


def test_registered_action_by_name():
    from repro.runtime.actions import action

    @action(name="test.triple")
    def triple(x):
        return 3 * x

    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        def main():
            return rt.async_at(1, "test.triple", 4).get()

        assert rt.run(main) == 12


def test_component_invoke():
    with Runtime(n_localities=2, workers_per_locality=2) as rt:
        acc = Accumulator()
        gid = rt.new_component(acc, locality_id=1)

        def main():
            rt.invoke(gid, "add", 10)
            rt.invoke(gid, "add", 5)
            return rt.invoke(gid, "read")

        assert rt.run(main) == 15


def test_component_migration_reroutes_parcels():
    with Runtime(n_localities=3, workers_per_locality=1) as rt:
        acc = Accumulator()
        gid = rt.new_component(acc, locality_id=0)

        def main():
            rt.invoke(gid, "add", 1)
            rt.agas.migrate(gid, 2)
            rt.invoke(gid, "add", 2)  # resolved to the new home
            return rt.invoke(gid, "read")

        assert rt.run(main) == 3
        assert rt.agas.home_of(gid) == 2


def test_new_component_requires_component():
    with Runtime() as rt:
        with pytest.raises(RuntimeStateError):
            rt.new_component(object())


def test_network_time_is_modelled():
    """Cross-locality calls must cost virtual network time; local ones not."""
    with Runtime(machine="xeon-e5-2660v3", n_localities=2, workers_per_locality=1) as rt:
        def main():
            return rt.async_at(1, double, 1).get()

        rt.run(main)
        # Round trip over IB: at least 2 x 2 us of virtual time.
        assert rt.makespan >= 2 * 2.0e-6


def test_kunpeng_charges_sender_for_transfers():
    """overlap=False (Kunpeng) bills the sending task for the wire time."""
    with Runtime(machine="kunpeng916", n_localities=2, workers_per_locality=1) as rt:
        def main():
            return rt.async_at(1, double, 1).get()

        rt.run(main)
        kunpeng_time = rt.makespan
    with Runtime(machine="xeon-e5-2660v3", n_localities=2, workers_per_locality=1) as rt:
        def main():
            return rt.async_at(1, double, 1).get()

        rt.run(main)
        xeon_time = rt.makespan
    assert kunpeng_time > 100 * xeon_time


#: Exact heat1d makespans (4 localities x 1 worker, nx 256, 10 steps,
#: cost_per_step 1e-6) at 1 and 8 partitions per locality: Kunpeng 916
#: cannot hide a transfer, so every send bills the *sending task*
#: (Sec. VII-A); A64FX overlaps it.
UNHIDDEN_NETWORK_MAKESPANS = {
    "kunpeng916": (0.7980233219999997, 1.533072541000001),
    "a64fx": (3.874313725490196e-05, 8.922369281045741e-05),
}


@pytest.mark.parametrize("scheduler", ["work-stealing", "static", "fifo"])
@pytest.mark.parametrize("machine", sorted(UNHIDDEN_NETWORK_MAKESPANS))
def test_unhidden_network_charge_makespan_oracle(machine, scheduler):
    """The send path's cost model, pinned to the last bit: a transmit
    that moved off the sending task (or was charged twice) shows here."""
    nx = 256
    u0 = np.cos(np.linspace(0.0, 2.0 * np.pi, nx, endpoint=False))
    reference = heat1d_reference(u0, 10, Heat1DParams())
    for partitions, expected in zip((1, 8), UNHIDDEN_NETWORK_MAKESPANS[machine]):
        with Runtime(
            machine=machine,
            n_localities=4,
            workers_per_locality=1,
            config=Config(threads__scheduler=scheduler),
        ) as rt:
            solver = DistributedHeat1D(
                rt,
                nx,
                Heat1DParams(),
                partitions_per_locality=partitions,
                cost_per_step=1e-6,
            )
            solver.initialize(u0)
            field = rt.run(lambda: solver.run(10))
            assert rt.makespan == expected
        np.testing.assert_array_equal(field, reference)


def test_fan_out_across_localities():
    with Runtime(machine="a64fx", n_localities=4, workers_per_locality=2) as rt:
        def main():
            futures = [rt.async_at(i, double, i) for i in range(4)]
            return [f.get() for f in when_all(futures).get()]

        assert rt.run(main) == [0, 2, 4, 6]


def test_sends_draw_strictly_increasing_parcel_ids():
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        route = rt.parcelport._router
        routed = []

        def recording_router(parcel, arrival):
            routed.append(parcel.parcel_id)
            route(parcel, arrival)

        rt.parcelport.install_router(recording_router)

        def main():
            futures = [rt.async_at(1, double, i) for i in range(1000)]
            return sum(f.get() for f in futures)

        assert rt.run(main) == 999_000
    assert len(routed) == 1000
    assert all(a < b for a, b in zip(routed, routed[1:]))


def test_progress_all_quiesces():
    with Runtime(workers_per_locality=2) as rt:
        def main():
            for i in range(10):
                async_(double, i)  # fire and forget
            return "done"

        rt.run(main)
        rt.progress_all()
        assert all(not loc.pool.pending() for loc in rt.localities)
