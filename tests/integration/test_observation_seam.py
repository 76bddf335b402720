"""Every observer rides the one ``instrument`` seam, together.

A tracer, the sanitizers and the counter sampler watch the same
distributed run without knowing about each other: nothing is patched,
nothing changes the answer, and a finding of one observer (a race)
reaches another (the tracer) with no plumbing between them.
"""

import numpy as np

from repro import analysis
from repro.observability import Tracer, sample_counters
from repro.runtime import Runtime, instrument
from repro.runtime.agas.component import Component
from repro.runtime.futures import when_all
from repro.stencil import DistributedHeat1D, Heat1DParams, analytic_heat_profile

STEPS = 5


def _runtime() -> Runtime:
    return Runtime(machine="xeon-e5-2660v3", n_localities=2, workers_per_locality=2)


def _solver(rt: Runtime) -> DistributedHeat1D:
    solver = DistributedHeat1D(
        rt, 64, Heat1DParams(), partitions_per_locality=2, cost_per_step=1e-4
    )
    solver.initialize(analytic_heat_profile(64))
    return solver


def test_tracer_sanitizers_and_sampler_compose_on_one_run():
    with _runtime() as rt:
        solver = _solver(rt)
        bare = rt.run(lambda: solver.run(STEPS))
    bare_makespan = rt.makespan

    tracer = Tracer()
    with analysis.attach(report="collect") as sanitizers:
        with _runtime() as rt:
            solver = _solver(rt)

            def job() -> np.ndarray:
                assert len(instrument.active_probes()) == 4
                assert "send" not in vars(rt.parcelport)
                for loc in rt.localities:
                    assert "_execute" not in vars(loc.pool)
                    assert "acquire" not in vars(loc.pool.scheduler)
                return solver.run(STEPS)

            with tracer.attach(rt):
                series = sample_counters(
                    rt,
                    job,
                    paths=["/threads{total}/count/cumulative"],
                    interval=1e-4,
                )
        assert sanitizers.race.findings() == []
        assert sanitizers.deadlock.wait_graph().names == {}
    assert instrument.active_probes() == [] and instrument.enabled is False
    assert np.array_equal(series.result, bare)
    assert rt.makespan == bare_makespan
    assert tracer.events_of("parcel_send")
    assert len(series) > STEPS
    # sampled_main is the one task the bare run did not have (hpx_main).
    assert series.rows[-1][0] == len(tracer.records)


class _Cell(Component):
    def __init__(self) -> None:
        super().__init__()
        self.x = 0

    def bump(self) -> int:
        self.mark_write("x")
        self.x += 1
        return self.x


def test_a_race_finding_reaches_the_tracer_over_the_seam():
    tracer = Tracer()
    with analysis.attach(deadlocks=False, report="collect") as sanitizers:
        with Runtime(n_localities=1, workers_per_locality=2) as rt:

            def main() -> None:
                gid = rt.new_component(_Cell())
                futures = [rt.invoke_async(gid, "bump") for _ in range(3)]
                for future in when_all(futures).get():
                    future.get()

            with tracer.attach(rt):
                rt.run(main)
        findings = sanitizers.race.findings()
    races = tracer.events_of("race")
    assert findings and len(races) == len(findings)
    assert all("_Cell" in event.args["location"] for event in races)
    assert races[0].pool == "locality-0" and races[0].worker_id is not None
