"""Histogram math, summaries, and tracer-derived distributions."""

import pytest

from repro.errors import ValidationError
from repro.observability import (
    Histogram,
    latency_histograms,
    parcel_latency_histogram,
    queue_delay_histogram,
    task_duration_histogram,
)
from repro.runtime import Runtime
from repro.runtime import context as ctx
from repro.runtime.threads.pool import ThreadPool
from repro.observability.tracer import Tracer


def test_percentiles_interpolate():
    histogram = Histogram("h", values=range(1, 101))  # 1..100
    assert histogram.percentile(0.0) == 1.0
    assert histogram.percentile(100.0) == 100.0
    assert histogram.percentile(50.0) == pytest.approx(50.5)
    assert histogram.percentile(95.0) == pytest.approx(95.05)


def test_percentile_edge_cases():
    assert Histogram("empty").percentile(50.0) == 0.0
    assert Histogram("one", values=[7.0]).percentile(99.0) == 7.0
    with pytest.raises(ValidationError):
        Histogram("h", values=[1.0]).percentile(101.0)
    with pytest.raises(ValidationError):
        Histogram("h", values=[1.0]).percentile(-1.0)


def test_summary_shape():
    summary = Histogram("delays", unit="s", values=[1.0, 2.0, 3.0]).summary()
    assert summary == {
        "name": "delays",
        "unit": "s",
        "count": 3,
        "min": 1.0,
        "max": 3.0,
        "mean": 2.0,
        "p50": 2.0,
        "p95": pytest.approx(2.9),
        "p99": pytest.approx(2.98),
    }


def test_render_bins_and_guards():
    histogram = Histogram("h", values=[0.0, 0.1, 0.1, 0.9])
    view = histogram.render(bins=2, width=10)
    assert "4 samples" in view
    assert view.count("#") > 0
    with pytest.raises(ValidationError):
        histogram.render(bins=0)
    assert "(no samples)" in Histogram("empty").render()
    assert "all =" in Histogram("flat", values=[2.0, 2.0]).render()


def test_tracer_histograms():
    pool = ThreadPool(1, name="p")
    tracer = Tracer()
    with tracer.attach(pool):
        pool.submit(lambda: ctx.add_cost(2.0))
        pool.submit(lambda: ctx.add_cost(4.0))  # queues behind the first
        pool.run_all()
    durations = task_duration_histogram(tracer)
    assert durations.count == 2
    assert sorted(durations.values) == [2.0, 4.0]
    delays = queue_delay_histogram(tracer)
    assert sorted(delays.values) == [0.0, 2.0]


def test_parcel_latency_histogram_from_distributed_run():
    tracer = Tracer()
    with Runtime(
        machine="xeon-e5-2660v3", n_localities=2, workers_per_locality=1
    ) as rt:
        with tracer.attach(rt):
            rt.run(lambda: rt.async_at(1, abs, -5).get())
    histograms = latency_histograms(tracer)
    assert set(histograms) == {"task_duration", "queue_delay", "parcel_latency"}
    latency = parcel_latency_histogram(tracer)
    assert latency.count >= 1
    assert latency.summary()["max"] > 0.0
