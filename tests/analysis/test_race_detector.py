"""Dynamic happens-before race detection over instrumented components."""

import pytest

from repro import analysis
from repro.config import Config
from repro.errors import DataRaceError
from repro.runtime.agas.component import Component
from repro.runtime.futures import when_all
from repro.runtime.runtime import Runtime
from repro.stencil import DistributedHeat1D, Heat1DParams, analytic_heat_profile
from repro.stencil.jacobi2d_dist import DistributedJacobi2D

import numpy as np


class Cell(Component):
    """A component with one racy field, for seeding races on purpose."""

    def __init__(self) -> None:
        super().__init__()
        self.x = 0

    def bump(self) -> int:
        self.mark_write("x")
        self.x += 1
        return self.x

    def peek(self) -> int:
        self.mark_read("x")
        return self.x


def test_seeded_write_write_race_raises_naming_both_sites():
    """Two sibling actions mutate one field with no ordering edge."""
    with pytest.raises(DataRaceError) as excinfo:
        with analysis.attach(deadlocks=False):
            with Runtime(n_localities=1, workers_per_locality=2) as rt:
                def main():
                    gid = rt.new_component(Cell())
                    f1 = rt.invoke_async(gid, "bump")
                    f2 = rt.invoke_async(gid, "bump")
                    for f in when_all([f1, f2]).get():
                        f.get()

                rt.run(main)
    err = excinfo.value
    message = str(err)
    assert "data race" in message
    assert "Cell" in message and ".x" in message
    # Both access sites are named, pointing at the racing method.
    assert err.current is not None and err.previous is not None
    assert "in bump" in err.current.site
    assert "in bump" in err.previous.site
    assert err.current.kind == "write" and err.previous.kind == "write"
    # The missing-edge explanation is part of the message.
    assert "happens-before" in message


def test_seeded_read_write_race_detected():
    with pytest.raises(DataRaceError) as excinfo:
        with analysis.attach(deadlocks=False):
            with Runtime(n_localities=1, workers_per_locality=2) as rt:
                def main():
                    gid = rt.new_component(Cell())
                    f1 = rt.invoke_async(gid, "bump")
                    f2 = rt.invoke_async(gid, "peek")
                    for f in when_all([f1, f2]).get():
                        f.get()

                rt.run(main)
    kinds = {excinfo.value.current.kind, excinfo.value.previous.kind}
    assert "write" in kinds


def test_future_edge_orders_accesses():
    """Reading the first action's future before issuing the second one
    creates a set->get edge; no race."""
    with analysis.attach(deadlocks=False):
        with Runtime(n_localities=1, workers_per_locality=2) as rt:
            def main():
                gid = rt.new_component(Cell())
                rt.invoke_async(gid, "bump").get()  # edge: fulfil -> read
                return rt.invoke_async(gid, "bump").get()

            assert rt.run(main) == 2


def test_collect_mode_accumulates_instead_of_raising():
    with analysis.attach(deadlocks=False, report="collect") as sanitizers:
        with Runtime(n_localities=1, workers_per_locality=2) as rt:
            def main():
                gid = rt.new_component(Cell())
                futures = [rt.invoke_async(gid, "bump") for _ in range(3)]
                for f in when_all(futures).get():
                    f.get()

            rt.run(main)
        findings = sanitizers.race.findings()
    assert findings, "unordered sibling writes must be collected"
    assert all(isinstance(f, DataRaceError) for f in findings)


@pytest.mark.parametrize("scheduler", ["fifo", "static", "work-stealing"])
def test_heat1d_demo_is_race_free(scheduler):
    """The futurized 1D stencil is clean under every scheduler policy."""
    config = Config(threads__scheduler=scheduler)
    with analysis.attach(deadlocks=False):
        with Runtime(
            n_localities=2, workers_per_locality=2, config=config
        ) as rt:
            solver = DistributedHeat1D(rt, 64, Heat1DParams(), cost_per_step=1.0)
            solver.initialize(analytic_heat_profile(64))
            result = rt.run(lambda: solver.run(3))
    assert np.isfinite(result).all()


@pytest.mark.parametrize("scheduler", ["fifo", "static", "work-stealing"])
def test_jacobi2d_demo_is_race_free(scheduler):
    """The 2D halo-exchange chain is clean under every scheduler policy."""
    config = Config(threads__scheduler=scheduler)
    with analysis.attach(deadlocks=False):
        with Runtime(
            n_localities=2, workers_per_locality=2, config=config
        ) as rt:
            solver = DistributedJacobi2D(rt, ny=6, nx=5)
            field = np.zeros((6, 5))
            field[0, :] = 1.0
            solver.initialize(field)
            result = rt.run(lambda: solver.run(3))
    assert np.isfinite(result).all()
