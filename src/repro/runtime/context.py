"""Execution context: who is running, where, and at what virtual time.

The runtime executes cooperatively in one OS thread, so "thread local"
state is a simple module-level stack: the innermost frame names the
active runtime, locality, thread pool, worker and HPX-thread.  Kernels
use :func:`add_cost` to attribute virtual compute seconds to the HPX
thread that is executing them, and blocking future reads record
dependency completion times so a task's virtual finish time respects its
data flow.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..errors import RuntimeStateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from .locality import Locality
    from .runtime import Runtime
    from .threads.hpx_thread import HpxThread
    from .threads.pool import ThreadPool

__all__ = [
    "ExecutionContext",
    "current",
    "current_or_none",
    "push",
    "pop",
    "add_cost",
    "current_task",
    "here",
]


class ExecutionContext:
    """One frame of the execution-context stack.

    A frame is built for every task execution, so this is a slotted
    plain class rather than a dataclass.
    """

    __slots__ = ("runtime", "locality", "pool", "worker_id", "task")

    def __init__(
        self,
        runtime: "Runtime | None" = None,
        locality: "Locality | None" = None,
        pool: "ThreadPool | None" = None,
        worker_id: int | None = None,
        task: "HpxThread | None" = None,
    ) -> None:
        self.runtime = runtime
        self.locality = locality
        self.pool = pool
        self.worker_id = worker_id
        self.task = task


_stack: list[ExecutionContext] = []


def push(ctx: ExecutionContext) -> None:
    """Enter a context frame (runtime boot, task execution)."""
    _stack.append(ctx)


def pop() -> ExecutionContext:
    """Leave the innermost context frame."""
    if not _stack:
        raise RuntimeStateError("context stack underflow")
    return _stack.pop()


def current() -> ExecutionContext:
    """The innermost context; raises outside any runtime."""
    if not _stack:
        raise RuntimeStateError(
            "no active runtime context; run inside Runtime.run() or a task"
        )
    return _stack[-1]


def current_or_none() -> Optional[ExecutionContext]:
    """The innermost context, or None outside any runtime."""
    return _stack[-1] if _stack else None


def current_task() -> "HpxThread | None":
    """The HPX thread currently executing, if any."""
    ctx = current_or_none()
    return ctx.task if ctx else None


def add_cost(seconds: float) -> None:
    """Attribute ``seconds`` of virtual compute time to the running task.

    Outside a task (e.g. plain unit-test calls) this is a no-op so kernels
    can be called directly.
    """
    if seconds < 0:
        raise RuntimeStateError(f"cost must be non-negative, got {seconds!r}")
    task = current_task()
    if task is not None:
        task.accrue_cost(seconds)


def here() -> "Locality":
    """The locality this code runs on (HPX ``find_here``)."""
    ctx = current()
    if ctx.locality is None:
        raise RuntimeStateError("context has no locality (runtime not booted?)")
    return ctx.locality
