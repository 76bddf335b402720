"""Chrome trace-event export for :class:`~repro.observability.tracer.Tracer`.

The trace-event format (one JSON object with a ``traceEvents`` array)
is what Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``
load natively -- the closest widely-deployed analogue of the
APEX/OTF2 traces HPX produces.  The mapping:

* each pool (= locality) becomes a *process*, each worker a *thread*
  (``M``etadata events name them);
* each executed task becomes a complete span (``ph: "X"``);
* steals, drops, retries and outages become instant events
  (``ph: "i"``);
* each parcel whose handler task was traced gets a *flow arrow*
  (``ph: "s"`` at the send, ``ph: "f"`` binding to the enclosing
  handler span) -- in Perfetto this draws the arrow from the sending
  task to the handler task it spawned on the destination locality.

Timestamps are microseconds of *virtual* time (the trace-event unit).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .tracer import Tracer

__all__ = ["chrome_trace_events", "export_chrome_trace"]

#: Virtual seconds -> trace-event microseconds.
_US = 1e6

#: Default pid for events with no located pool (job-wide parcel events).
_JOB_PID = 0


def _pid_map(tracer: "Tracer") -> dict[str, int]:
    """Stable pool-name -> pid assignment (pid 0 is the job itself)."""
    names: list[str] = []
    for record in tracer.records:
        if record.pool not in names:
            names.append(record.pool)
    for name in tracer.pool_workers:
        if name not in names:
            names.append(name)
    for event in tracer.events:
        if event.pool and event.pool not in names:
            names.append(event.pool)
    return {name: i + 1 for i, name in enumerate(sorted(names))}


def chrome_trace_events(tracer: "Tracer") -> list[dict]:
    """The ``traceEvents`` array for one tracer's timeline."""
    pids = _pid_map(tracer)
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _JOB_PID,
            "tid": 0,
            "args": {"name": "job"},
        }
    ]
    for name, pid in pids.items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
        for worker_id in range(tracer.pool_workers.get(name, 0)):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": worker_id,
                    "args": {"name": f"worker-{worker_id}"},
                }
            )

    # Task spans -- and remember where each parcel handler ran so flow
    # arrows can terminate inside the handler's span.
    handler_spans: dict[int, dict] = {}
    for record in tracer.records:
        span = {
            "name": record.description or f"task#{record.tid}",
            "cat": "task",
            "ph": "X",
            "ts": record.start_time * _US,
            "dur": record.duration * _US,
            "pid": pids[record.pool],
            "tid": record.worker_id,
            "args": {
                "tid": record.tid,
                "ready_time_s": record.ready_time,
                "queue_delay_s": record.queue_delay,
            },
        }
        events.append(span)
        if record.description.startswith("parcel#"):
            suffix = record.description[len("parcel#"):]
            if suffix.isdigit():
                handler_spans.setdefault(int(suffix), span)

    # Flow arrows: parcel send -> handler task.  The start step rides on
    # the sending task's lane (when the send happened inside a traced
    # task); the finish step binds to the enclosing handler span.
    flowed: set[int] = set()
    for event in tracer.events:
        if event.kind != "parcel_send" or event.parcel_id is None:
            continue
        handler = handler_spans.get(event.parcel_id)
        if handler is None or event.parcel_id in flowed:
            continue
        flowed.add(event.parcel_id)
        events.append(
            {
                "name": "parcel",
                "cat": "parcel",
                "ph": "s",
                "id": event.parcel_id,
                "ts": event.time * _US,
                "pid": pids.get(event.pool, _JOB_PID),
                "tid": event.worker_id if event.worker_id is not None else 0,
            }
        )
        events.append(
            {
                "name": "parcel",
                "cat": "parcel",
                "ph": "f",
                "bp": "e",  # bind to the enclosing (handler) slice
                "id": event.parcel_id,
                "ts": handler["ts"],
                "pid": handler["pid"],
                "tid": handler["tid"],
            }
        )

    # Instant events.
    for event in tracer.events:
        if event.kind in ("parcel_send", "parcel_recv"):
            continue  # already represented by flows / handler spans
        instant = {
            "name": event.kind,
            "cat": "runtime",
            "ph": "i",
            "ts": event.time * _US,
            "pid": pids.get(event.pool, _JOB_PID),
            "tid": event.worker_id if event.worker_id is not None else 0,
            "s": "t" if event.worker_id is not None else "p",
            "args": dict(event.args),
        }
        if event.parcel_id is not None:
            instant["args"]["parcel_id"] = event.parcel_id
        events.append(instant)

    events.sort(key=lambda e: (e.get("ts", -1.0), e["pid"], e["tid"]))
    return events


def export_chrome_trace(tracer: "Tracer", path: str | None = None) -> str:
    """Serialize a tracer's timeline; optionally write it to ``path``."""
    document = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"clock": "virtual", "source": "repro.observability"},
    }
    text = json.dumps(document, indent=None, separators=(",", ":"))
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
