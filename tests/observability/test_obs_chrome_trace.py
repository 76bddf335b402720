"""Schema validation for the Chrome trace-event export.

The exported JSON must be loadable by Perfetto / ``chrome://tracing``:
a ``traceEvents`` array whose entries carry the phase-specific required
keys, with flow arrows (``s``/``f``) pairing parcel sends to handler
spans.  These tests pin that contract.
"""

import json

import pytest

from repro.observability import chrome_trace_events, export_chrome_trace
from repro.runtime import Runtime
from repro.runtime import context as ctx
from repro.runtime.threads.pool import ThreadPool
from repro.observability.tracer import Tracer

#: Keys every event must carry, per the trace-event format spec.
_COMMON_KEYS = {"name", "ph", "pid", "tid"}


@pytest.fixture(scope="module")
def traced_run():
    """One traced 2-locality heat-exchange-style run, shared read-only."""
    tracer = Tracer()
    with Runtime(
        machine="xeon-e5-2660v3", n_localities=2, workers_per_locality=2
    ) as rt:
        with tracer.attach(rt):
            rt.run(
                lambda: [rt.async_at(1, abs, -i).get() for i in range(6)]
                and None
            )
    return tracer


def test_document_shape(traced_run):
    text = export_chrome_trace(traced_run)
    document = json.loads(text)
    assert set(document) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert isinstance(document["traceEvents"], list)
    assert document["traceEvents"]


def test_every_event_is_well_formed(traced_run):
    for event in chrome_trace_events(traced_run):
        assert _COMMON_KEYS <= set(event), event
        assert event["ph"] in ("M", "X", "i", "s", "f")
        if event["ph"] == "M":
            assert event["name"] in ("process_name", "thread_name")
            assert "name" in event["args"]
        else:
            assert isinstance(event["ts"], float)
            assert event["ts"] >= 0.0
        if event["ph"] == "X":
            assert event["dur"] >= 0.0
            assert event["cat"] == "task"
        if event["ph"] in ("s", "f"):
            assert isinstance(event["id"], int)
        if event["ph"] == "i":
            assert event["s"] in ("t", "p")


def test_spans_cover_all_traced_tasks(traced_run):
    spans = [e for e in chrome_trace_events(traced_run) if e["ph"] == "X"]
    assert len(spans) == len(traced_run.records)


def test_metadata_names_every_pool_and_worker(traced_run):
    events = chrome_trace_events(traced_run)
    process_names = {
        e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert {"job", "locality-0", "locality-1"} <= process_names
    thread_rows = [
        e for e in events if e["ph"] == "M" and e["name"] == "thread_name"
    ]
    assert len(thread_rows) == 4  # 2 localities x 2 workers


def test_flow_arrows_pair_and_bind_to_handler_spans(traced_run):
    events = chrome_trace_events(traced_run)
    starts = {e["id"]: e for e in events if e["ph"] == "s"}
    finishes = {e["id"]: e for e in events if e["ph"] == "f"}
    assert starts  # remote calls produced parcels
    assert set(starts) == set(finishes)  # every arrow has both ends
    spans = [e for e in events if e["ph"] == "X"]
    for parcel_id, finish in finishes.items():
        assert finish["bp"] == "e"
        # The finish step must land exactly on a handler span.
        enclosing = [
            s
            for s in spans
            if s["pid"] == finish["pid"]
            and s["tid"] == finish["tid"]
            and s["ts"] == finish["ts"]
        ]
        assert enclosing, f"flow {parcel_id} binds to no span"
        # And the arrow must point forward in time.
        assert starts[parcel_id]["ts"] <= finish["ts"]


def test_events_sorted_by_timestamp(traced_run):
    events = chrome_trace_events(traced_run)
    timestamps = [e.get("ts", -1.0) for e in events]
    assert timestamps == sorted(timestamps)


def test_steal_instants_present_for_unbalanced_pool():
    pool = ThreadPool(2, name="p")
    tracer = Tracer()
    with tracer.attach(pool):
        for _ in range(8):
            pool.submit(lambda: ctx.add_cost(1.0), worker=0)
        pool.run_all()
    instants = [e for e in chrome_trace_events(tracer) if e["ph"] == "i"]
    assert instants
    assert all(e["name"] == "steal" for e in instants)


def test_export_writes_file(tmp_path, traced_run):
    path = tmp_path / "run.trace.json"
    text = traced_run.export_chrome_trace(str(path))
    assert path.read_text(encoding="utf-8") == text
    assert json.loads(text)["otherData"]["clock"] == "virtual"


def test_empty_tracer_exports_valid_document():
    document = json.loads(export_chrome_trace(Tracer()))
    phases = {e["ph"] for e in document["traceEvents"]}
    assert phases == {"M"}  # just the job process row
