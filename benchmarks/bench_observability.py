"""Overheads and artifacts of the observability layer.

Tracing and counter sampling are only usable if they are cheap enough
to leave on; these benchmarks measure the real wall-clock overhead of
(1) tracing a distributed run, (2) exporting Chrome trace-event JSON,
and (3) virtual-time counter sampling -- and write the resulting
artifacts (trace JSON, counter CSV, metrics JSON) to
``benchmarks/out/`` so EXPERIMENTS.md can reference them.
"""

import json

from repro.observability import (
    collect_metrics,
    latency_histograms,
    sample_counters,
)
from repro.runtime import Runtime
from repro.observability.tracer import Tracer
from repro.stencil import DistributedHeat1D, Heat1DParams, analytic_heat_profile

NODES, WORKERS, STEPS, POINTS = 2, 2, 12, 128


def _solver(rt):
    solver = DistributedHeat1D(rt, POINTS, Heat1DParams(), cost_per_step=1.0)
    solver.initialize(analytic_heat_profile(POINTS))
    return solver


def test_traced_run_overhead(benchmark, save_metrics):
    """A fully-traced distributed run (spans + parcel/steal events)."""

    def run():
        tracer = Tracer()
        with Runtime(
            machine="xeon-e5-2660v3", n_localities=NODES, workers_per_locality=WORKERS
        ) as rt:
            with tracer.attach(rt):
                rt.run(lambda: _solver(rt).run(STEPS))
            return tracer, collect_metrics(rt)["counters"]

    tracer, counters = benchmark(run)
    assert len(tracer.records) > STEPS
    assert tracer.events_of("parcel_send")
    save_metrics(
        "observability_traced_run",
        counters=counters,
        histograms=latency_histograms(tracer),
        meta={"nodes": NODES, "workers": WORKERS, "steps": STEPS},
    )


def test_chrome_trace_export(benchmark, exhibit_dir):
    """Serializing a traced run to Chrome trace-event JSON."""
    tracer = Tracer()
    with Runtime(
        machine="xeon-e5-2660v3", n_localities=NODES, workers_per_locality=WORKERS
    ) as rt:
        with tracer.attach(rt):
            rt.run(lambda: _solver(rt).run(STEPS))
    path = exhibit_dir / "observability_demo.trace.json"
    text = benchmark(tracer.export_chrome_trace, str(path))
    document = json.loads(text)
    phases = {event["ph"] for event in document["traceEvents"]}
    assert {"X", "M", "s", "f"} <= phases


def test_counter_sampling_overhead(benchmark, exhibit_dir):
    """Sampling four counters every virtual second of the demo run."""

    def run():
        with Runtime(
            machine="xeon-e5-2660v3", n_localities=NODES, workers_per_locality=WORKERS
        ) as rt:
            solver = _solver(rt)
            return sample_counters(
                rt,
                lambda: solver.run(STEPS),
                paths=[
                    "/threads{total}/count/cumulative",
                    "/threads{total}/idle-rate",
                    "/parcels{total}/count/sent",
                    "/parcels{total}/time/average-latency",
                ],
                interval=1.0,
            )

    series = benchmark(run)
    assert len(series) >= STEPS
    (exhibit_dir / "observability_counter_series.csv").write_text(series.to_csv())
