#!/usr/bin/env python3
"""Runtime introspection: performance counters, tracing, topology views.

The paper leans on three kinds of introspection -- ``hwloc`` for
topology/pinning, PAPI/perf for hardware counters, and HPX's own
counters for runtime behaviour.  This example exercises all three
reproductions on a distributed run:

1. render the machine tree and the worker pinning (``hwloc-ls`` view),
2. run the distributed heat solver under the tracer and show the
   virtual-time Gantt chart (latency hiding, visibly),
3. read the HPX-style performance counters for the run,
4. export the timeline as Chrome trace-event JSON (open it in
   https://ui.perfetto.dev) and print latency-histogram summaries,
5. re-run while *sampling* counters every virtual second
   (``--hpx:print-counter-interval`` analogue).

Run:  python examples/runtime_introspection.py
"""

from repro.hardware import machine
from repro.hardware.topology_render import render_machine, render_pinning
from repro.observability import latency_histograms, sample_counters
from repro.runtime import Runtime, perfcounters
from repro.observability.tracer import Tracer
from repro.stencil import DistributedHeat1D, Heat1DParams, analytic_heat_profile

MACHINE = "a64fx"
NODES, WORKERS, STEPS = 2, 4, 8


def main() -> None:
    model = machine(MACHINE)
    print("=== 1. Topology (hwloc-ls view, first CMG only) ===")
    print("\n".join(render_machine(model, show_pus=False).splitlines()[:17]))
    print("   ...")
    print()
    print(render_pinning(model, model.topology.pin_compact(WORKERS * NODES)))

    print("\n=== 2. Traced distributed run (virtual-time Gantt) ===")
    tracer = Tracer()
    with Runtime(machine=MACHINE, n_localities=NODES, workers_per_locality=WORKERS) as rt:
        solver = DistributedHeat1D(
            rt, 128, Heat1DParams(), partitions_per_locality=WORKERS,
            cost_per_step=1.0,
        )
        solver.initialize(analytic_heat_profile(128))
        with tracer.attach(rt):
            rt.run(lambda: solver.run(STEPS))

        print(tracer.render_gantt(min_duration=0.5, exclude="hpx_main"))
        print(
            f"{len(tracer.records)} tasks traced; total queue delay "
            f"{tracer.total_queue_delay():.3f}s of virtual time"
        )

        print("\n=== 3. Performance counters (HPX counter paths) ===")
        for path in (
            "/threads{total}/count/cumulative",
            "/threads{locality#0/total}/count/cumulative",
            "/threads{locality#0/worker#0}/time/busy",
            "/threads{total}/count/stolen",
            "/threads{total}/idle-rate",
            "/parcels{total}/count/sent",
            "/parcels{total}/data/sent",
            "/parcels{total}/time/average-latency",
            "/runtime/uptime",
        ):
            print(f"  {path:<48} = {perfcounters.query(rt, path):,.6f}")

    print("\n=== 4. Perfetto export + latency histograms ===")
    out = "runtime_introspection.trace.json"
    tracer.export_chrome_trace(out)
    print(f"wrote {out} -- open it at https://ui.perfetto.dev")
    for name, histogram in latency_histograms(tracer).items():
        summary = histogram.summary()
        print(
            f"  {name:<16} n={summary['count']:<4} mean={summary['mean']:.4f}s "
            f"p50={summary['p50']:.4f}s p95={summary['p95']:.4f}s "
            f"p99={summary['p99']:.4f}s"
        )

    print("\n=== 5. Counter sampling every 1.0 virtual seconds ===")
    with Runtime(machine=MACHINE, n_localities=NODES, workers_per_locality=WORKERS) as rt:
        solver = DistributedHeat1D(
            rt, 128, Heat1DParams(), partitions_per_locality=WORKERS,
            cost_per_step=1.0,
        )
        solver.initialize(analytic_heat_profile(128))
        series = sample_counters(
            rt,
            lambda: solver.run(STEPS),
            paths=[
                "/threads{total}/count/cumulative",
                "/threads{total}/idle-rate",
                "/parcels{total}/count/sent",
            ],
            interval=1.0,
        )
    print(series.to_csv().rstrip())


if __name__ == "__main__":
    main()
