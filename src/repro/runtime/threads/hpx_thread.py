"""The lightweight HPX-thread (task) object.

An HPX-thread is far lighter than an OS thread: a callable, a promise for
its result (none when it was posted *detached*, ``hpx::post``: nobody
can read the result, so nothing is allocated to hold it), and scheduling
metadata.  Here it also carries the virtual-
time bookkeeping: when it became runnable (``ready_time``), how much
virtual compute it has accrued (:meth:`accrue_cost`), and the latest
completion time of any future it consumed (:meth:`note_dependency`).  Its
virtual finish time is ``max(start, deps) + cost``.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable

from ...errors import RuntimeStateError
from ..futures import Future, Promise

__all__ = ["HpxThread", "Label", "ThreadState", "ThreadPriority"]

_ids = itertools.count(1)

#: Shared empty-kwargs sentinel: tasks only ever ``**``-unpack their
#: kwargs, so the (overwhelmingly common) no-kwargs spawn can share one
#: dict instead of allocating a fresh one per HPX-thread.
_NO_KWARGS: dict[str, Any] = {}

#: A task label: the text itself, or ``(format, *args)`` that
#: :attr:`HpxThread.description` ``%``-formats when a tracer, probe or
#: error message asks -- the spawn path stores it and moves on.
Label = str | tuple[Any, ...]


class ThreadState(enum.Enum):
    """Lifecycle of an HPX-thread (subset of HPX's state machine)."""

    PENDING = "pending"  # in a scheduler queue
    RUNNING = "running"  # executing on a worker
    SUSPENDED = "suspended"  # blocked on an LCO, helping the scheduler
    TERMINATED = "terminated"  # done (value or exception delivered)


class ThreadPriority(enum.IntEnum):
    """HPX thread priorities; higher values run first on each worker."""

    LOW = 0
    NORMAL = 1
    HIGH = 2


# Enum member access goes through a descriptor on every read; the spawn
# path reads these two once per HPX-thread.
_PENDING = ThreadState.PENDING
_NORMAL = ThreadPriority.NORMAL


class HpxThread:
    """One unit of user work plus its virtual-time accounting."""

    __slots__ = (
        "tid",
        "fn",
        "args",
        "kwargs",
        "_description",
        "state",
        "priority",
        "ready_time",
        "start_time",
        "finish_time",
        "worker_id",
        "_cost",
        "_deps_time",
        "_promise",
    )

    def __init__(
        self,
        fn: Callable[..., Any],
        args: tuple[Any, ...] = (),
        kwargs: dict[str, Any] | None = None,
        description: Label = "",
        ready_time: float = 0.0,
        priority: "ThreadPriority | None" = None,
        detached: bool = False,
    ) -> None:
        if not callable(fn):
            raise RuntimeStateError(f"task body must be callable, got {fn!r}")
        self.tid = next(_ids)
        self.fn = fn
        self.args = args
        self.kwargs = kwargs if kwargs else _NO_KWARGS
        self._description = description
        self.state = _PENDING
        self.priority = _NORMAL if priority is None else ThreadPriority(priority)
        self.ready_time = ready_time if type(ready_time) is float else float(ready_time)
        self.start_time = 0.0
        self.finish_time = 0.0
        self.worker_id: int | None = None
        self._cost = 0.0
        self._deps_time = 0.0
        self._promise = None if detached else Promise()

    @property
    def description(self) -> str:
        """Human-readable label, defaulting to the body's ``__name__``.

        Resolved lazily: only tracers, probes and error paths read it,
        so the (hot) spawn path pays neither the ``getattr`` nor the
        string formatting of a :data:`Label`.
        """
        label = self._description
        if not label:
            return str(getattr(self.fn, "__name__", "task"))
        if isinstance(label, str):
            return label
        return str(label[0] % label[1:])

    # Result plumbing ----------------------------------------------------------
    def get_future(self) -> Future:
        """Future for this task's return value."""
        if self._promise is None:
            raise RuntimeStateError("a detached HPX-thread has no future")
        return self._promise.get_future()

    @property
    def promise(self) -> Promise | None:
        """The result promise; None for a detached (posted) thread."""
        return self._promise

    # Virtual-time accounting ----------------------------------------------------
    def accrue_cost(self, seconds: float) -> None:
        """Add ``seconds`` of modelled compute time to this task."""
        if seconds < 0:
            raise RuntimeStateError("cost must be non-negative")
        self._cost += seconds

    def note_dependency(self, ready_time: float) -> None:
        """Record that this task consumed a value produced at ``ready_time``."""
        if ready_time > self._deps_time:
            self._deps_time = ready_time

    @property
    def cost(self) -> float:
        return self._cost

    def current_virtual_time(self) -> float:
        """The task's position on the virtual clock *right now*.

        ``max(start, latest dependency) + accrued cost`` -- used for the
        ready time of children it spawns and of promises it fulfils.
        """
        start = self.start_time
        deps = self._deps_time
        return (start if start >= deps else deps) + self._cost

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"HpxThread(#{self.tid} {self.description!r} {self.state.value}"
            f" cost={self._cost:.3e})"
        )
