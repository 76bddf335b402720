"""Execution tracing: virtual-time task timelines and runtime events.

HPX ships APEX/OTF2 tracing to show where HPX-threads ran and when; the
paper's latency-hiding claim ("network latencies can be hidden under
compute") is exactly the kind of statement a task timeline proves.  The
:class:`Tracer` is a :class:`~repro.runtime.instrument.Probe` that
records every task's (worker, start, finish, description) on the
virtual clock plus the discrete *events* the runtime reports -- work
steals, parcel send/receive/retry/drop, overload decisions, sanitizer
findings -- and renders a text Gantt chart or exports the whole timeline
as Chrome trace-event JSON for Perfetto / ``chrome://tracing``.

Usage::

    tracer = Tracer()
    with tracer.attach(pool):            # or attach to every pool of a runtime
        ...run work...
    print(tracer.render_gantt())
    tracer.export_chrome_trace("run.trace.json")
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from ..errors import RuntimeStateError
from ..runtime import context as ctx
from ..runtime import instrument
from ..runtime.threads.pool import ThreadPool
from .chrome_trace import export_chrome_trace

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.runtime import Runtime
    from ..runtime.threads.hpx_thread import HpxThread

__all__ = ["TaskRecord", "TraceEvent", "Tracer"]


@dataclass(frozen=True, slots=True)
class TaskRecord:
    """One executed task on the virtual timeline."""

    pool: str
    worker_id: int
    tid: int
    description: str
    ready_time: float
    start_time: float
    finish_time: float

    @property
    def duration(self) -> float:
        return self.finish_time - self.start_time

    @property
    def queue_delay(self) -> float:
        """Time spent runnable but not running (scheduler pressure)."""
        return max(0.0, self.start_time - self.ready_time)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One discrete event on the timeline: a recorded
    :meth:`Probe.event <repro.runtime.instrument.Probe.event>` call (the
    kinds are tabulated in :mod:`repro.runtime.instrument`)."""

    kind: str
    time: float
    pool: str = ""
    worker_id: int | None = None
    parcel_id: int | None = None
    args: dict = field(default_factory=dict)


class Tracer(instrument.Probe):
    """Collects :class:`TaskRecord` and :class:`TraceEvent` entries."""

    def __init__(self) -> None:
        self.records: list[TaskRecord] = []
        self.events: list[TraceEvent] = []
        #: Real worker count per attached pool name -- the utilization
        #: denominator.  Workers that never ran a task still count.
        self.pool_workers: dict[str, int] = {}
        self._watched: set[ThreadPool] = set()

    # Attachment -----------------------------------------------------------------
    @contextmanager
    def attach(self, target: "ThreadPool | Runtime") -> Iterator["Tracer"]:
        """Observe a pool (or every pool of a runtime) for the block.

        The tracer is installed on the :mod:`~repro.runtime.instrument`
        seam while at least one ``attach`` block is open.  It records the
        tasks of the pools it was asked to watch, and every event
        reported during the block.  Attaching twice to one pool raises
        :class:`RuntimeStateError` (and changes nothing).
        """
        pools = self._pools_of(target)
        for pool in pools:
            if pool in self._watched:
                raise RuntimeStateError(
                    f"tracer is already attached to pool {pool.name!r}"
                )
        for pool in pools:
            self.pool_workers[pool.name] = pool.n_workers
        self._record_outages(target)
        self._watched.update(pools)
        instrument.install(self)
        try:
            yield self
        finally:
            self._watched.difference_update(pools)
            if not self._watched:
                instrument.uninstall(self)

    # Probe ------------------------------------------------------------------------
    def task_finished(self, task: "HpxThread") -> None:
        frame = ctx.current()
        pool = frame.pool
        if pool in self._watched:
            self.records.append(
                TaskRecord(
                    pool=pool.name,
                    worker_id=frame.worker_id,
                    tid=task.tid,
                    description=task.description,
                    ready_time=task.ready_time,
                    start_time=task.start_time,
                    finish_time=task.finish_time,
                )
            )

    def event(
        self,
        kind: str,
        time: float,
        pool: str = "",
        worker_id: int | None = None,
        parcel_id: int | None = None,
        args: dict[str, Any] | None = None,
    ) -> None:
        self.events.append(
            TraceEvent(kind, time, pool, worker_id, parcel_id, args or {})
        )

    def _record_outages(self, target: "ThreadPool | Runtime") -> None:
        injector = getattr(target, "fault_injector", None)
        if injector is None:
            return
        for failure in injector.locality_failures:
            self.events.append(
                TraceEvent(
                    kind="outage",
                    time=failure.at,
                    pool=f"locality-{failure.locality_id}",
                    args={"until": failure.until},
                )
            )

    @staticmethod
    def _pools_of(target: "ThreadPool | Runtime") -> list[ThreadPool]:
        if isinstance(target, ThreadPool):
            return [target]
        if hasattr(target, "localities"):
            return [loc.pool for loc in target.localities]
        raise RuntimeStateError(f"cannot attach tracer to {type(target).__name__}")

    # Analysis --------------------------------------------------------------------
    def events_of(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def parcel_latencies(self) -> dict[int, float]:
        """First-send to first-receive virtual latency per parcel id."""
        sends: dict[int, float] = {}
        for event in self.events:
            if event.kind == "parcel_send" and event.parcel_id not in sends:
                sends[event.parcel_id] = event.time
        latencies: dict[int, float] = {}
        for event in self.events:
            if (
                event.kind == "parcel_recv"
                and event.parcel_id in sends
                and event.parcel_id not in latencies
            ):
                latencies[event.parcel_id] = max(
                    0.0, event.time - sends[event.parcel_id]
                )
        return latencies

    @property
    def makespan(self) -> float:
        return max((r.finish_time for r in self.records), default=0.0)

    def _worker_count(self, pool: str | None, records: list[TaskRecord]) -> int:
        """Utilization denominator: the *real* worker count of every pool
        in view, falling back to observed lanes for pools attached by an
        older tracer state (or never attached at all)."""
        pool_names = {r.pool for r in records}
        if pool is not None:
            pool_names &= {pool}
        total = 0
        for name in pool_names:
            observed = len({r.worker_id for r in records if r.pool == name})
            total += max(self.pool_workers.get(name, 0), observed)
        return total

    def busy_fraction(self, pool: str | None = None) -> float:
        """Fraction of (workers x makespan) spent executing tasks.

        The denominator uses each pool's *real* worker count (captured
        at attach time), so workers that executed nothing still count as
        idle capacity -- a 1-busy-of-8-workers pool reports 12.5%, not
        100%.
        """
        records = [r for r in self.records if pool is None or r.pool == pool]
        if not records:
            return 0.0
        span = max(r.finish_time for r in records)
        if span == 0.0:
            return 0.0
        n_workers = self._worker_count(pool, records)
        if n_workers == 0:
            return 0.0
        busy = sum(r.duration for r in records)
        return busy / (span * n_workers)

    def idle_rate(self, pool: str | None = None) -> float:
        """Complement of :meth:`busy_fraction` (HPX's idle-rate view)."""
        records = [r for r in self.records if pool is None or r.pool == pool]
        if not records:
            return 0.0
        return max(0.0, 1.0 - self.busy_fraction(pool))

    def total_queue_delay(self) -> float:
        return sum(r.queue_delay for r in self.records)

    # Export ----------------------------------------------------------------------
    def export_chrome_trace(self, path: str | None = None) -> str:
        """Chrome trace-event JSON (spans, instants, parcel flow arrows).

        Returns the JSON text; with ``path`` it is also written to disk.
        Load the file in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing`` -- see ``docs/observability.md``.
        """
        return export_chrome_trace(self, path)

    # Rendering -------------------------------------------------------------------
    def render_gantt(
        self, width: int = 72, min_duration: float = 0.0, exclude: str | None = None
    ) -> str:
        """Text Gantt chart: one lane per worker, ``#`` marks busy time.

        ``@`` marks spans stacked on one worker -- this is *suspension*,
        not double-booking: a task that blocked on a future stays on its
        lane while the helper tasks it ran nest inside its span.

        The busy/idle summary line divides by the pools' real worker
        counts, so lanes that never ran a task still count as idle
        capacity.

        ``min_duration`` filters out zero-cost bookkeeping tasks;
        ``exclude`` drops tasks whose description contains the substring
        (e.g. ``"hpx_main"`` to hide the blocking driver).
        """
        records = [
            r
            for r in self.records
            if r.duration >= min_duration
            and (exclude is None or exclude not in r.description)
        ]
        if not records:
            return "(no traced tasks)"
        span = max(r.finish_time for r in records)
        if span <= 0.0:
            return "(all traced tasks at t=0)"
        scale = (width - 1) / span
        n_workers = self._worker_count(None, self.records)
        lines = [
            f"virtual time 0 .. {span:.4g}s  ({width} cols)  "
            f"busy {self.busy_fraction():.1%} / idle {self.idle_rate():.1%} "
            f"of {n_workers} workers"
        ]
        lanes: dict[tuple[str, int], list[str]] = {}
        for record in sorted(records, key=lambda r: (r.pool, r.worker_id)):
            key = (record.pool, record.worker_id)
            lane = lanes.setdefault(key, [" "] * width)
            lo = int(record.start_time * scale)
            hi = max(lo + 1, int(record.finish_time * scale))
            for i in range(lo, min(hi, width)):
                lane[i] = "#" if lane[i] == " " else "@"  # '@' = suspended span
        for (pool, worker_id), lane in sorted(lanes.items()):
            lines.append(f"{pool}/w{worker_id:<2} |{''.join(lane)}|")
        return "\n".join(lines)
