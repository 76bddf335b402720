"""One-call metrics collection: counters + histogram summaries.

The CLI (``repro trace --metrics``) wants a single JSON-ready artifact
per run -- the runtime counters that explain the result plus the latency
distributions behind them.  :func:`collect_metrics` assembles it; the
actual file writing lives in :func:`repro.reporting.write_metrics_json`
so every such artifact has the same shape.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..runtime import perfcounters
from .histograms import latency_histograms

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.runtime import Runtime
    from .tracer import Tracer

__all__ = ["STANDARD_COUNTERS", "OVERLOAD_COUNTERS", "collect_metrics"]

#: The counters every metrics artifact reports by default: enough to
#: reconstruct the paper's utilization/latency arguments for a run.
STANDARD_COUNTERS = (
    "/threads{total}/count/cumulative",
    "/threads{total}/count/stolen",
    "/threads{total}/time/average",
    "/threads{total}/time/busy",
    "/threads{total}/idle-rate",
    "/parcels{total}/count/sent",
    "/parcels{total}/data/sent",
    "/parcels{total}/count/delivered",
    "/parcels{total}/time/average-latency",
    "/runtime/uptime",
)

#: Appended to the defaults when the runtime has an overload controller
#: installed (``overload.enabled``): the graceful-degradation story of a
#: run is unreadable without its shed/defer/breaker decisions.
OVERLOAD_COUNTERS = (
    "/overload{total}/count/shed",
    "/overload{total}/count/deferred",
    "/overload{total}/count/credits-stalled",
    "/overload{total}/count/credit-resumes",
    "/overload{total}/count/completed",
    "/overload{total}/queue/stalled",
    "/breaker{total}/count/opens",
    "/breaker{total}/count/half-open-probes",
    "/phi{total}/suspicion",
    "/parcels{total}/count/dead-letter-evicted",
)


def collect_metrics(
    runtime: "Runtime",
    tracer: "Tracer | None" = None,
    counters: Sequence[str] | None = None,
) -> dict:
    """Snapshot a runtime's counters (and a tracer's distributions).

    Returns a JSON-ready dict: ``{"counters": {path: value},
    "histograms": {name: summary}}`` -- histograms only when a tracer
    that observed the run is supplied.
    """
    if counters is not None:
        paths = list(counters)
    else:
        paths = list(STANDARD_COUNTERS)
        if getattr(runtime, "_overload", None) is not None:
            paths.extend(OVERLOAD_COUNTERS)
    payload: dict = {
        "counters": {path: perfcounters.query(runtime, path) for path in paths}
    }
    if tracer is not None:
        payload["histograms"] = {
            name: histogram.summary()
            for name, histogram in latency_histograms(tracer).items()
        }
    return payload
