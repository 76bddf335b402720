"""Futures and promises -- the foundational LCO.

Semantics follow HPX/C++ ``std::future``/``promise``:

* a :class:`Promise` is the write end, single-assignment (value *or*
  exception);
* a :class:`Future` is the read end; ``get()`` blocks (cooperatively:
  the calling HPX-thread helps the scheduler drain other work until the
  value arrives), re-raises stored exceptions, and is idempotent
  (shared-future semantics -- the paper's codes pass futures around
  freely);
* ``then`` attaches a continuation that runs as a new HPX-thread when
  the future becomes ready;
* :func:`when_all` composes futures.

Virtual time: a promise records the virtual time at which it was
fulfilled; a task that reads the future inherits that as a dependency,
so makespans respect data flow.

Lost continuations: every *demanded* state (a combinator or
continuation target, or an unmatched channel read, that some code is
counting on) is recorded by :func:`demand` in the table of the job it was
made in, ``Runtime.demanded``, and fulfilment removes it.  What is left
when the job drains is the silent-hang case -- a continuation that can
never fire -- and the runtime's quiescence check, the deadlock detector
and the schedule explorer all read that one table.  A demand made outside
any runtime records nothing: no job will ever quiesce on it.

Sanitizer integration: fulfilment, reads, combinator links and blocking
waits are reported through :mod:`repro.runtime.instrument`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Sequence

from ..errors import (
    BrokenPromiseError,
    FutureAlreadySetError,
    FutureError,
    FutureNotReadyError,
    FutureTimeoutError,
    RuntimeStateError,
)
from . import context as ctx
from . import instrument
from .context import _stack as _context_stack

__all__ = [
    "Future",
    "Promise",
    "make_ready_future",
    "when_all",
    "demand",
]


class _SharedState:
    """State shared between one promise and any number of futures."""

    __slots__ = (
        "value",
        "exception",
        "ready",
        "ready_time",
        "callbacks",
        "broken",
        "demanded",
    )

    def __init__(self) -> None:
        self.value: Any = None
        self.exception: BaseException | None = None
        self.ready = False
        self.broken = False
        self.ready_time = 0.0
        self.callbacks: List[Callable[[Future], None]] = []
        #: The job table this state is recorded in while demanded (see
        #: :func:`demand`), else None: the (hot) fulfilment path skips the
        #: removal for the overwhelmingly common never-demanded state.
        self.demanded: Dict[_SharedState, str] | None = None


def demand(state: _SharedState, label: str, sources: Sequence[Future] = ()) -> None:
    """Record ``state`` as *demanded*: code downstream expects it to
    become ready from ``sources``.

    The record goes into the current job's table (``Runtime.demanded``);
    fulfilment removes it.  With a probe installed this is also the one
    ``state_linked`` report of the link.
    """
    frame = _context_stack[-1] if _context_stack else None
    if frame is not None and (runtime := frame.runtime) is not None:
        table = runtime.demanded
        table[state] = label
        state.demanded = table
    if instrument.enabled and (probe := instrument.probe) is not None:
        probe.state_linked([f._state for f in sources], state, label)


class Future:
    """Read end of an asynchronous value (shared-future semantics)."""

    __slots__ = ("_state",)

    def __init__(self, state: _SharedState) -> None:
        self._state = state

    # Introspection ---------------------------------------------------------
    def is_ready(self) -> bool:
        """True once a value or exception has been stored."""
        return self._state.ready

    @property
    def ready_time(self) -> float:
        """Virtual time at which the future became ready (0 if pending)."""
        return self._state.ready_time

    # Reading ----------------------------------------------------------------
    def get(self, timeout: float | None = None) -> Any:
        """Obtain the value, cooperatively waiting if necessary.

        Inside a runtime the calling task *helps the scheduler*: other
        runnable HPX-threads execute until this future is ready (HPX
        suspends the thread; helping is the cooperative equivalent).  The
        waiting task also inherits the producer's virtual finish time as
        a dependency.  With ``timeout`` (virtual seconds) the wait is
        bounded as in :meth:`wait_for`.
        """
        if timeout is not None:
            self.wait_for(timeout)
        state = self._state
        if not state.ready:
            probe = instrument.probe
            if probe is not None:
                probe.wait_enter(state, "future.get")
            try:
                self._help_until_ready()
            finally:
                if probe is not None:
                    probe.wait_exit(state)
            if not state.ready:
                raise FutureNotReadyError(
                    "future is not ready and no runnable work can make it so"
                )
        if instrument.enabled and (probe := instrument.probe) is not None:
            probe.state_read(state)
        frame = _context_stack[-1] if _context_stack else None
        if frame is not None and frame.task is not None:
            frame.task.note_dependency(state.ready_time)
        if state.exception is not None:
            raise state.exception
        return state.value

    def get_nowait(self) -> Any:
        """Non-blocking get; raises :class:`FutureNotReadyError` if pending."""
        state = self._state
        if not state.ready:
            raise FutureNotReadyError("future is not ready")
        if instrument.enabled and (probe := instrument.probe) is not None:
            probe.state_read(state)
        frame = _context_stack[-1] if _context_stack else None
        if frame is not None and frame.task is not None:
            frame.task.note_dependency(state.ready_time)
        if state.exception is not None:
            raise state.exception
        return state.value

    def _help_until_ready(self) -> None:
        """Drive the scheduler (job-wide when a runtime is active) until
        this future is ready."""
        frame = ctx.current_or_none()
        if frame is None:
            return
        if frame.runtime is not None:
            frame.runtime.progress_until(self.is_ready)
        elif frame.pool is not None:
            frame.pool.run_until(self.is_ready)

    def wait(self) -> None:
        """Wait for readiness without consuming the value."""
        state = self._state
        if not state.ready:
            probe = instrument.probe
            if probe is not None:
                probe.wait_enter(state, "future.wait")
            try:
                self._help_until_ready()
            finally:
                if probe is not None:
                    probe.wait_exit(state)
        if not state.ready:
            raise FutureNotReadyError(
                "future is not ready and no runnable work can make it so"
            )
        probe = instrument.probe
        if probe is not None:
            probe.state_read(state)

    def wait_for(self, timeout: float) -> None:
        """Wait at most ``timeout`` *virtual* seconds for readiness.

        The deadline is ``now + timeout`` on the caller's virtual clock.
        Only work that can start at or before the deadline is helped, so
        the wait cannot be satisfied by values produced after it -- a
        future whose ``ready_time`` lands past the deadline still times
        out.  On timeout the waiting task's clock advances to the
        deadline (it observed the whole window pass) and
        :class:`~repro.errors.FutureTimeoutError` is raised; readiness
        exactly *at* the deadline counts as ready.
        """
        if timeout < 0:
            raise FutureError(f"timeout must be non-negative, got {timeout!r}")
        state = self._state
        frame = ctx.current_or_none()
        now = 0.0
        if frame is not None and frame.pool is not None:
            now = frame.pool.now
        deadline = now + timeout
        if not state.ready:
            probe = instrument.probe
            if probe is not None:
                probe.wait_enter(state, f"future.wait_for({timeout!r})")
            try:
                if frame is not None and frame.runtime is not None:
                    frame.runtime.progress_before(self.is_ready, deadline)
                elif frame is not None and frame.pool is not None:
                    frame.pool.run_before(self.is_ready, deadline)
            finally:
                if probe is not None:
                    probe.wait_exit(state)
        if state.ready and state.ready_time <= deadline:
            probe = instrument.probe
            if probe is not None:
                probe.state_read(state)
            return
        task = ctx.current_task()
        if task is not None:
            task.note_dependency(deadline)
        raise FutureTimeoutError(
            f"future not ready within {timeout!r} virtual seconds "
            f"(deadline t={deadline!r})"
        )

    # Composition ------------------------------------------------------------
    def then(self, fn: Callable[[Future], Any]) -> "Future":
        """Attach a continuation; returns the continuation's future.

        ``fn`` receives *this* (ready) future, mirroring HPX's
        ``future::then``.  The continuation runs as a new HPX-thread on
        the current pool (or inline when no runtime is active).
        """
        promise = Promise()
        name = getattr(fn, "__name__", "continuation")
        demand(promise._state, f"then({name})", (self,))

        def run_continuation(_: Future) -> None:
            frame = ctx.current_or_none()

            def body() -> None:
                try:
                    promise.set_value(fn(self))
                except BaseException as exc:  # noqa: BLE001 - forwarded
                    promise.set_exception(exc)

            if frame is not None and frame.pool is not None:
                frame.pool.post(body, description="continuation")
            else:
                body()

        self._on_ready(run_continuation)
        return promise.get_future()

    def _on_ready(self, callback: Callable[[Future], None]) -> None:
        state = self._state
        if state.ready:
            callback(self)
        else:
            state.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover
        if not self._state.ready:
            return "Future(<pending>)"
        if self._state.exception is not None:
            return f"Future(<exception {type(self._state.exception).__name__}>)"
        return f"Future({self._state.value!r})"


class Promise:
    """Write end: single-assignment container fulfilling its futures."""

    __slots__ = ("_state", "_future_taken")

    def __init__(self) -> None:
        self._state = _SharedState()
        self._future_taken = False

    def get_future(self) -> Future:
        """Obtain a future for this promise (any number of times)."""
        return Future(self._state)

    def _fulfil(self) -> None:
        state = self._state
        state.ready = True
        # Inlined ``frame.pool.now`` (which would re-fetch the frame):
        # fulfilment is one of the hottest sites in the runtime.
        frame = _context_stack[-1] if _context_stack else None
        if frame is not None and frame.pool is not None:
            task = frame.task
            state.ready_time = (
                task.current_virtual_time() if task is not None else frame.pool.makespan
            )
        table = state.demanded
        if table is not None:
            state.demanded = None
            table.pop(state, None)
        if instrument.enabled and (probe := instrument.probe) is not None:
            probe.state_fulfilled(state)
        callbacks = state.callbacks
        if callbacks:
            state.callbacks = []
            future = Future(state)
            for callback in callbacks:
                callback(future)

    def set_value(self, value: Any = None) -> None:
        """Store the value and wake all continuations."""
        if self._state.ready:
            raise FutureAlreadySetError("promise already satisfied")
        self._state.value = value
        self._fulfil()

    def set_exception(self, exc: BaseException) -> None:
        """Store an exception; readers of the future will re-raise it."""
        if self._state.ready:
            raise FutureAlreadySetError("promise already satisfied")
        if not isinstance(exc, BaseException):
            raise TypeError(f"set_exception needs an exception, got {exc!r}")
        self._state.exception = exc
        self._fulfil()

    def is_ready(self) -> bool:
        return self._state.ready

    def break_promise(self) -> None:
        """Mark the promise broken (producer died); readers get
        :class:`BrokenPromiseError`."""
        if not self._state.ready:
            self._state.broken = True
            self._state.exception = BrokenPromiseError(
                "the producing task terminated without setting a value"
            )
            self._fulfil()


def make_ready_future(value: Any = None) -> Future:
    """A future that is ready immediately (HPX ``make_ready_future``)."""
    promise = Promise()
    promise.set_value(value)
    return promise.get_future()


def when_all(futures: Iterable[Future], timeout: float | None = None) -> Future:
    """A future of the list of input futures, ready when all are.

    Mirrors HPX ``when_all``: the result value is the sequence of (ready)
    futures, so exceptions surface when the caller ``get``s the elements.
    With ``timeout`` (virtual seconds, measured from the caller's current
    virtual time) the returned future fails with
    :class:`~repro.errors.FutureTimeoutError` if any input is still
    pending at the deadline; inputs completing exactly at the deadline
    count as ready.  A timeout needs an active pool to host the virtual
    timer.
    """
    futs: Sequence[Future] = list(futures)
    promise = Promise()
    remaining = len(futs)
    if remaining == 0:
        promise.set_value([])
        return promise.get_future()
    demand(promise._state, f"when_all({len(futs)})", futs)
    done = False

    def one_ready(fut: Future) -> None:
        # Each input's release clock joins the result, so a reader of the
        # when_all future is ordered after *every* producer, not just the
        # one that happened to complete last.
        nonlocal remaining, done
        if instrument.enabled and (probe := instrument.probe) is not None:
            probe.state_read(fut._state)
            probe.state_contribute(promise._state)
        remaining -= 1
        if remaining == 0 and not done:
            done = True
            promise.set_value(list(futs))

    for fut in futs:
        fut._on_ready(one_ready)
    if timeout is not None and not promise.is_ready():

        def expire() -> None:
            nonlocal done
            if not done:
                done = True
                promise.set_exception(
                    FutureTimeoutError(
                        f"when_all: {remaining} of {len(futs)} future(s) still "
                        f"pending after {timeout!r} virtual seconds"
                    )
                )

        _arm_timer(expire, timeout, "when_all-timeout")
    return promise.get_future()


def _arm_timer(fire: Callable[[], None], timeout: float, description: str) -> None:
    """Schedule ``fire`` as a virtual-time timer task at ``now + timeout``
    (it must itself check whether the guarded wait already completed)."""
    if timeout < 0:
        raise FutureError(f"timeout must be non-negative, got {timeout!r}")
    frame = ctx.current_or_none()
    if frame is None or frame.pool is None:
        raise RuntimeStateError(
            "a timeout needs an active thread pool to host the virtual timer"
        )
    pool = frame.pool
    # LOW priority: work completing exactly at the deadline is popped
    # before the timer, so fire-at-deadline counts as ready.
    from .threads.hpx_thread import ThreadPriority

    pool.post(
        fire,
        ready_time=pool.now + timeout,
        description=description,
        priority=ThreadPriority.LOW,
    )
