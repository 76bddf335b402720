"""Metrics collection: the JSON-ready artifact behind ``repro trace --metrics``."""

import pytest

from repro.observability import STANDARD_COUNTERS, collect_metrics
from repro.runtime import Runtime
from repro.observability.tracer import Tracer


@pytest.fixture()
def traced_runtime():
    tracer = Tracer()
    with Runtime(
        machine="xeon-e5-2660v3", n_localities=2, workers_per_locality=1
    ) as rt:
        with tracer.attach(rt):
            rt.run(lambda: rt.async_at(1, abs, -2).get())
        yield rt, tracer


def test_collect_metrics_standard_counters(traced_runtime):
    rt, _ = traced_runtime
    metrics = collect_metrics(rt)
    assert set(metrics) == {"counters"}
    assert set(metrics["counters"]) == set(STANDARD_COUNTERS)
    assert all(isinstance(v, float) for v in metrics["counters"].values())
    assert metrics["counters"]["/runtime/uptime"] > 0.0


def test_collect_metrics_with_tracer(traced_runtime):
    rt, tracer = traced_runtime
    metrics = collect_metrics(rt, tracer=tracer)
    assert set(metrics) == {"counters", "histograms"}
    assert set(metrics["histograms"]) == {
        "task_duration",
        "queue_delay",
        "parcel_latency",
    }
    for summary in metrics["histograms"].values():
        assert {"count", "mean", "p50", "p95", "p99"} <= set(summary)


def test_collect_metrics_custom_counters(traced_runtime):
    rt, _ = traced_runtime
    metrics = collect_metrics(rt, counters=["/runtime/uptime"])
    assert list(metrics["counters"]) == ["/runtime/uptime"]
