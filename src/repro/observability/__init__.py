"""Observability: tracing, trace export, counter sampling, latency histograms.

The paper's Sec. VII argument is built on *introspection* -- hardware
and runtime counters explain why each platform performs as it does, and
HPX's APEX/perf-counter facility is how that data is collected in
practice.  Everything here watches the runtime through the
:mod:`repro.runtime.instrument` seam or reads
:mod:`repro.runtime.perfcounters`:

* :mod:`~repro.observability.tracer` -- the :class:`Tracer` probe:
  per-task records and discrete runtime events on the virtual clock,
  a text Gantt chart, utilization.
* :mod:`~repro.observability.chrome_trace` -- export a tracer's
  timeline as Chrome trace-event JSON (Perfetto / ``chrome://tracing``),
  with flow arrows linking each parcel's send to its handler task.
* :mod:`~repro.observability.sampling` -- an
  ``--hpx:print-counter-interval`` analogue: snapshot any set of
  counter paths every Δt of *virtual* time and emit a CSV/JSON time
  series.
* :mod:`~repro.observability.histograms` -- latency distributions
  (task duration, queue delay, parcel latency) with p50/p95/p99
  summaries.
* :mod:`~repro.observability.metrics` -- one-call collection of the
  standard counters + histogram summaries into a JSON-ready dict, the
  artifact ``repro trace --metrics`` writes.

See ``docs/observability.md`` for the guided tour.
"""

from .chrome_trace import chrome_trace_events, export_chrome_trace
from .histograms import (
    Histogram,
    latency_histograms,
    parcel_latency_histogram,
    queue_delay_histogram,
    task_duration_histogram,
)
from .metrics import STANDARD_COUNTERS, collect_metrics
from .sampling import CounterTimeSeries, sample_counters
from .tracer import TaskRecord, TraceEvent, Tracer

__all__ = [
    "chrome_trace_events",
    "export_chrome_trace",
    "Histogram",
    "task_duration_histogram",
    "queue_delay_histogram",
    "parcel_latency_histogram",
    "latency_histograms",
    "STANDARD_COUNTERS",
    "collect_metrics",
    "CounterTimeSeries",
    "sample_counters",
    "TaskRecord",
    "TraceEvent",
    "Tracer",
]
