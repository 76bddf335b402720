"""Virtual-time counter sampling (``--hpx:print-counter-interval``).

HPX can print any set of performance counters every N milliseconds
while a job runs; the papers evaluating HPX drive whole experiments
off those time series.  This module is the analogue on the virtual
clock: :func:`sample_counters` runs a job while snapshotting a set of
counter paths every ``interval`` virtual seconds, yielding a
:class:`CounterTimeSeries` that serializes to CSV or JSON.

Sampling granularity: execution is cooperative, so counters are read
at *scheduling points* (task completions).  Each sample is taken at
the first scheduling point at or after its Δt boundary and timestamped
with the boundary; a long task that crosses several boundaries yields
several samples with the state observed when it finished.  Because
execution is deterministic, the series is bit-identical across runs
with the same configuration (and the same
:class:`~repro.resilience.faults.FaultInjector` seed, if any).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..errors import ValidationError
from ..runtime import instrument, perfcounters

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.runtime import Runtime
    from ..runtime.threads.hpx_thread import HpxThread

__all__ = ["CounterTimeSeries", "sample_counters"]


class CounterTimeSeries:
    """Aligned samples of a fixed set of counter paths over virtual time."""

    def __init__(self, paths: Sequence[str]) -> None:
        if not paths:
            raise ValidationError("counter time series needs at least one path")
        self.paths = list(paths)
        self.times: list[float] = []
        self.rows: list[list[float]] = []
        #: Return value of the sampled job (set by :func:`sample_counters`).
        self.result: Any = None

    def append(self, time: float, values: Sequence[float]) -> None:
        if len(values) != len(self.paths):
            raise ValidationError(
                f"sample has {len(values)} values for {len(self.paths)} paths"
            )
        if self.times and time < self.times[-1]:
            raise ValidationError("samples must be appended in time order")
        self.times.append(float(time))
        self.rows.append([float(v) for v in values])

    def __len__(self) -> int:
        return len(self.times)

    def values(self, path: str) -> list[float]:
        """One counter's sampled values, in time order."""
        try:
            column = self.paths.index(path)
        except ValueError:
            raise ValidationError(f"path {path!r} was not sampled") from None
        return [row[column] for row in self.rows]

    def to_csv(self) -> str:
        """``time,<path>,...`` header plus one row per sample."""
        lines = [",".join(["time"] + self.paths)]
        for time, row in zip(self.times, self.rows):
            lines.append(",".join([f"{time:.9g}"] + [f"{v:.9g}" for v in row]))
        return "\n".join(lines) + "\n"

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(
            {
                "paths": self.paths,
                "samples": [
                    {"time": time, "values": dict(zip(self.paths, row))}
                    for time, row in zip(self.times, self.rows)
                ],
            },
            indent=indent,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CounterTimeSeries({len(self.paths)} paths, {len(self)} samples)"
        )


class _Probe(instrument.Probe):
    """Reads the counters whenever the virtual high-water mark crosses
    the next Δt boundary.

    The high-water mark is the latest task finish time seen so far --
    pools interleave almost-causally, so individual finish times are
    not monotone, but the running maximum is.
    """

    def __init__(
        self,
        runtime: "Runtime",
        series: CounterTimeSeries,
        interval: float,
        max_samples: int,
    ) -> None:
        self.runtime = runtime
        self.series = series
        self.interval = interval
        self.max_samples = max_samples
        self.high_water = 0.0
        self.next_boundary = interval

    def snapshot(self) -> list[float]:
        return [perfcounters.query(self.runtime, p) for p in self.series.paths]

    def task_finished(self, task: "HpxThread") -> None:
        if task.finish_time <= self.high_water:
            return
        self.high_water = task.finish_time
        while self.next_boundary <= self.high_water:
            self.series.append(self.next_boundary, self.snapshot())
            if len(self.series) >= self.max_samples:
                raise ValidationError(
                    f"exceeded {self.max_samples} samples at interval "
                    f"{self.interval}; is the job unbounded?"
                )
            self.next_boundary += self.interval


def sample_counters(
    runtime: "Runtime",
    main: Callable[..., Any],
    *args: Any,
    paths: Sequence[str],
    interval: float,
    kwargs: dict | None = None,
    max_samples: int = 1_000_000,
) -> CounterTimeSeries:
    """Run ``main`` on locality 0 while sampling ``paths`` every
    ``interval`` virtual seconds.

    The job is driven exactly like :meth:`Runtime.run`, with a probe
    installed: each task completion advances a high-water virtual clock,
    and the counters are snapshotted whenever it crosses a Δt boundary.
    A final sample is taken at completion time; the job's return value
    is stored on the series as ``result``.

    Raises :class:`~repro.errors.ValidationError` on a non-positive
    interval or when ``max_samples`` is exceeded (a runaway-job guard);
    stalls raise the usual :class:`~repro.errors.DeadlockError` /
    :class:`~repro.errors.ParcelDeadLetterError`.
    """
    if interval <= 0.0:
        raise ValidationError("sample interval must be positive")
    series = CounterTimeSeries(paths)
    probe = _Probe(runtime, series, interval, max_samples)

    instrument.install(probe)
    try:
        future = runtime.localities[0].pool.submit(
            main, *args, kwargs=kwargs, description="sampled_main"
        )
        runtime.progress_until(future.is_ready)
    finally:
        instrument.uninstall(probe)
    final_time = max(runtime.makespan, probe.high_water)
    if not series.times or series.times[-1] < final_time:
        series.append(final_time, probe.snapshot())
    series.result = future.get()
    return series
