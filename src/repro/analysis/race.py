"""Dynamic data-race detection via vector-clock happens-before tracking.

ParalleX's correctness contract is that futures, LCOs and parcels are
the *only* ordering edges between HPX-threads; any two accesses to
shared component state that are not connected by such an edge are a
race -- in this deterministic reproduction they show up as silent
schedule-dependent nondeterminism rather than crashes, which is worse.

:class:`RaceDetector` is a :class:`~repro.runtime.instrument.Probe`
that maintains one :class:`~repro.analysis.vector_clock.VectorClock`
per HPX-thread and creates happens-before edges from every
synchronisation the runtime reports:

* **spawn**: ``ThreadPool.submit`` (child inherits the submitter's
  clock) -- this also covers parcel send -> handler and reply -> reader,
  because both sides are materialised as submitted tasks;
* **future set -> get**: a promise's fulfilment stamps the setter's
  clock on the shared state; every read joins it;
* **LCO releases**: each ``when_all`` / ``dataflow`` input
  *contributes* its clock to the release, so the released side is
  ordered after **all** contributors, not just the last one;
* **buffered hand-offs**: channel values carry the clock of the task
  that deposited them.

Shared data is tracked at explicitly instrumented locations --
:meth:`~repro.runtime.agas.component.Component.mark_read` /
``mark_write`` in component actions, and the built-in hooks in the
stencil partitions.  Two
accesses to one location where at least one is a write and neither
happens-before the other raise :class:`~repro.errors.DataRaceError`
naming both access sites and the missing edge.
"""

from __future__ import annotations

import os
import traceback
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Sequence

from ..errors import DataRaceError
from ..runtime import context as ctx
from ..runtime import instrument
from ..runtime.instrument import Probe
from .vector_clock import Epoch, VectorClock

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.threads.hpx_thread import HpxThread

__all__ = ["RaceDetector", "AccessRecord"]

#: Synthetic thread id for code running outside any HPX-thread.
MAIN_TID = 0

_PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SELF_FILES = (
    os.path.join("analysis", "race.py"),
    os.path.join("runtime", "instrument.py"),
)
_HELPER_FUNCS = frozenset(
    {"mark_read", "mark_write", "record_read", "record_write", "access", "_access"}
)


def _capture_sites() -> tuple[str, str]:
    """``(access site, origin site)`` for the current access.

    The access site is the first frame below the instrumentation helpers
    (typically the component method performing the read/write); the
    origin site is the nearest enclosing frame outside ``src/repro``
    (test or application code), or ``""`` when the whole stack is
    library-internal.
    """
    frames = traceback.extract_stack()
    access_site = ""
    origin_site = ""
    for frame in reversed(frames):
        filename = frame.filename
        if any(filename.endswith(suffix) for suffix in _SELF_FILES):
            continue
        if frame.name in _HELPER_FUNCS:
            continue
        where = f"{filename}:{frame.lineno} in {frame.name}"
        if not access_site:
            access_site = where
        if not filename.startswith(_PKG_ROOT):
            origin_site = where
            break
    return access_site, origin_site


@dataclass(frozen=True)
class AccessRecord:
    """One recorded access to an instrumented location."""

    kind: str  # "read" | "write"
    tid: int
    task: str  # description of the accessing HPX-thread
    epoch: Epoch
    site: str
    origin: str

    def describe(self) -> str:
        who = f"thread #{self.tid}" if self.tid != MAIN_TID else "the main context"
        text = f"{self.kind} by {who} ({self.task}) at {self.site}"
        if self.origin and self.origin != self.site:
            text += f" (from {self.origin})"
        return text


class _Location:
    """Per-location access history: last write plus reads since."""

    __slots__ = ("owner", "field", "write", "reads")

    def __init__(self, owner: Any, field: str) -> None:
        self.owner = owner  # strong ref: keeps id(owner) stable
        self.field = field
        self.write: AccessRecord | None = None
        self.reads: Dict[int, AccessRecord] = {}

    def label(self) -> str:
        return f"{type(self.owner).__name__}@{id(self.owner):#x}.{self.field}"


class RaceDetector(Probe):
    """Happens-before race detection over instrumented shared state.

    ``report="raise"`` (default) raises :class:`DataRaceError` at the
    racing access; ``report="collect"`` records findings in
    :attr:`races` and keeps going (CLI smoke runs).  Each finding is
    also reported to the installed probes as an ``event`` of kind
    ``"race"``, which puts it on an attached tracer's timeline.
    """

    def __init__(self, report: str = "raise") -> None:
        if report not in ("raise", "collect"):
            raise ValueError(f"report must be 'raise' or 'collect', got {report!r}")
        self.report = report
        self.races: list[DataRaceError] = []
        self._clocks: Dict[int, VectorClock] = {MAIN_TID: VectorClock()}
        #: Release clock of each fulfilled shared state, by id().
        self._state_clocks: Dict[int, VectorClock] = {}
        #: Accumulated contributions for not-yet-fulfilled states.
        self._contribs: Dict[int, VectorClock] = {}
        #: FIFO clock queues for buffered hand-offs (channel values).
        self._tokens: Dict[int, deque[VectorClock]] = {}
        #: Instrumented locations by (id(owner), field).
        self._locations: Dict[tuple[int, str], _Location] = {}
        #: Strong refs keyed by id() so ids cannot be recycled underneath us.
        self._keepalive: Dict[int, Any] = {}

    # Clock plumbing --------------------------------------------------------
    def _current_tid(self) -> int:
        task = ctx.current_task()
        return task.tid if task is not None else MAIN_TID

    def _clock_of(self, tid: int) -> VectorClock:
        clock = self._clocks.get(tid)
        if clock is None:
            clock = VectorClock()
            clock.tick(tid)
            self._clocks[tid] = clock
        return clock

    def clock(self) -> VectorClock:
        """The calling context's current vector clock (for tests/tools)."""
        return self._clock_of(self._current_tid())

    def _pin(self, obj: Any) -> int:
        key = id(obj)
        self._keepalive[key] = obj
        return key

    # Probe events ----------------------------------------------------------
    def task_created(self, parent: "HpxThread | None", task: "HpxThread") -> None:
        parent_tid = parent.tid if parent is not None else self._current_tid()
        parent_clock = self._clock_of(parent_tid)
        child = parent_clock.copy()
        child.tick(task.tid)
        self._clocks[task.tid] = child
        parent_clock.tick(parent_tid)

    def state_fulfilled(self, state: Any) -> None:
        key = self._pin(state)
        tid = self._current_tid()
        clock = self._clock_of(tid)
        release = clock.copy()
        contrib = self._contribs.pop(key, None)
        if contrib is not None:
            release.join(contrib)
        self._state_clocks[key] = release
        clock.tick(tid)

    def state_read(self, state: Any) -> None:
        release = self._state_clocks.get(id(state))
        if release is not None:
            self._clock_of(self._current_tid()).join(release)

    def state_contribute(self, state: Any) -> None:
        key = self._pin(state)
        tid = self._current_tid()
        clock = self._clock_of(tid)
        contrib = self._contribs.get(key)
        if contrib is None:
            self._contribs[key] = clock.copy()
        else:
            contrib.join(clock)
        clock.tick(tid)

    def token_put(self, obj: Any) -> None:
        key = self._pin(obj)
        tid = self._current_tid()
        clock = self._clock_of(tid)
        self._tokens.setdefault(key, deque()).append(clock.copy())
        clock.tick(tid)

    def token_get(self, obj: Any) -> None:
        queue = self._tokens.get(id(obj))
        if queue:
            self._clock_of(self._current_tid()).join(queue.popleft())

    def stalled(self, context: Any = None) -> None:
        """A stall is a global synchronisation point: join every clock.

        The progress engine fires this only after proving *no* runnable
        work exists anywhere, so every other task has terminated (or can
        never run again).  Whatever the stalled context does next --
        crash-recovery rollback re-reading partition fields, a test
        inspecting state after a DeadlockError -- is genuinely ordered
        after all of it, even where no future/LCO edge was recorded
        (e.g. chains abandoned by a rollback).  Without this join the
        recovery path would be flagged as racing with the dead timeline.
        """
        current = self._clock_of(self._current_tid())
        for clock in self._clocks.values():
            current.join(clock)

    # Race checking ---------------------------------------------------------
    def access(self, owner: Any, field: str, kind: str) -> None:
        tid = self._current_tid()
        clock = self._clock_of(tid)
        key = (self._pin(owner), field)
        location = self._locations.get(key)
        if location is None:
            location = self._locations[key] = _Location(owner, field)
        site, origin = _capture_sites()
        task = ctx.current_task()
        record = AccessRecord(
            kind=kind,
            tid=tid,
            task=task.description if task is not None else "main",
            epoch=clock.epoch(tid),
            site=site,
            origin=origin,
        )
        if kind == "write":
            if location.write is not None and not clock.dominates(location.write.epoch):
                self._report(location, location.write, record)
            for read in location.reads.values():
                if read.tid != tid and not clock.dominates(read.epoch):
                    self._report(location, read, record)
            location.write = record
            location.reads.clear()
        elif kind == "read":
            if location.write is not None and not clock.dominates(location.write.epoch):
                self._report(location, location.write, record)
            location.reads[tid] = record
        else:  # pragma: no cover - defensive
            raise ValueError(f"access kind must be 'read'/'write', got {kind!r}")

    def _report(
        self, location: _Location, previous: AccessRecord, current: AccessRecord
    ) -> None:
        error = DataRaceError(
            f"data race on {location.label()}: "
            f"{current.describe()} is unordered with earlier "
            f"{previous.describe()}; no happens-before edge (future "
            f"set->get, LCO release, parcel, or spawn/join) connects the "
            f"two accesses",
            location=location.label(),
            current=current,
            previous=previous,
        )
        self.races.append(error)
        if instrument.probe is not None:
            frame = ctx.current_or_none()
            pool = frame.pool if frame is not None else None
            instrument.probe.event(
                "race",
                pool.now if pool is not None else 0.0,
                pool.name if pool is not None else "",
                frame.worker_id if frame is not None else None,
                args={
                    "location": location.label(),
                    "current": current.describe(),
                    "previous": previous.describe(),
                },
            )
        if self.report == "raise":
            raise error

    # Results ---------------------------------------------------------------
    def findings(self) -> Sequence[DataRaceError]:
        """All collected races (``report="collect"`` mode)."""
        return list(self.races)
