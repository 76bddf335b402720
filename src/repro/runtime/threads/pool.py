"""The cooperative thread pool: real execution, virtual time.

Workers model pinned OS threads (one per physical core, as the paper
configures HPX).  Execution is cooperative and single-OS-threaded, which
makes every run deterministic; *when* things happen is tracked on a
virtual clock:

* each worker has an ``available_at`` time;
* a task starts at ``max(worker.available_at, task.ready_time)`` and
  finishes at ``max(start, latest dependency) + accrued cost``;
* a blocking ``Future.get()`` suspends the task and lets the pool run
  other work ("helping"), the cooperative analogue of HPX suspending an
  HPX-thread and the worker picking up the next one.

The pool's makespan (``max available_at``) is the modelled parallel
execution time -- this is what the DES-mode benchmarks read.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ...errors import DeadlockError, RuntimeStateError
from .. import context as ctx
from ..context import _stack as _context_stack
from .. import instrument
from ..futures import Future
from .hpx_thread import HpxThread, Label, ThreadPriority, ThreadState
from .scheduler import Scheduler

__all__ = ["ThreadPool"]

_INF = float("inf")

# Enum member access goes through a descriptor on every read; the
# dispatch path writes these once per task.
_RUNNING = ThreadState.RUNNING
_TERMINATED = ThreadState.TERMINATED


class _Worker:
    __slots__ = ("worker_id", "core_id", "available_at", "tasks_run", "busy_time")

    def __init__(self, worker_id: int, core_id: int | None) -> None:
        self.worker_id = worker_id
        self.core_id = core_id
        self.available_at = 0.0
        self.tasks_run = 0
        #: Attributed compute seconds executed on this worker (excludes
        #: idle gaps and dependency waits) -- drives the idle-rate counter.
        self.busy_time = 0.0


class ThreadPool:
    """A pool of virtual worker cores executing HPX-threads."""

    #: Guard against unbounded mutual blocking (each nested blocking get
    #: re-enters the scheduler loop).
    MAX_HELP_DEPTH = 256

    def __init__(
        self,
        n_workers: int,
        scheduler: str = "work-stealing",
        core_ids: Optional[list[int]] = None,
        name: str = "default",
        steal_attempts: int | None = None,
    ) -> None:
        if n_workers < 1:
            raise RuntimeStateError("pool needs at least one worker")
        if core_ids is not None and len(core_ids) != n_workers:
            raise RuntimeStateError(
                f"{len(core_ids)} core ids for {n_workers} workers"
            )
        self.name = name
        self.workers = [
            _Worker(i, core_ids[i] if core_ids else None) for i in range(n_workers)
        ]
        self.scheduler = Scheduler(n_workers, scheduler, steal_attempts)
        self.scheduler.pool = self
        self.tasks_executed = 0
        #: High-water mark of the queue depth, maintained on submit --
        #: the overload storm harness asserts this stays bounded.
        self.peak_pending = 0
        self.failures: list[tuple[HpxThread, BaseException]] = []
        self._help_depth = 0
        self._in_flight = 0
        # Backrefs installed by Locality/Runtime so task frames carry them.
        self.locality = None
        self.runtime = None
        #: Schedule controller (repro.analysis.explore): when installed,
        #: every dispatch exposes the full ready set and the controller
        #: picks which task runs next.  None on the production path.
        self.controller = None

    # Introspection -------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self.workers)

    @property
    def makespan(self) -> float:
        """Virtual time at which every worker is drained."""
        workers = self.workers
        span = workers[0].available_at
        for worker in workers:
            if worker.available_at > span:
                span = worker.available_at
        return span

    @property
    def now(self) -> float:
        """Current virtual time from the active task's point of view."""
        frame = ctx.current_or_none()
        if frame is not None and frame.pool is self and frame.task is not None:
            return frame.task.current_virtual_time()
        return self.makespan

    @property
    def steals(self) -> int:
        """Successful steals (0 unless the policy is work-stealing)."""
        return self.scheduler.steals

    def pending(self) -> int:
        """Queued tasks not yet started."""
        return len(self.scheduler)

    def pending_low(self) -> int:
        """Queued LOW-priority (sheddable background) tasks."""
        return self.scheduler.pending_low()

    def discard_pending(self) -> int:
        """Drop every queued-but-unstarted task (crash decommissioning).

        Models the work a dead node takes with it: each dropped task's
        promise is broken, so anything still waiting on it observes
        :class:`~repro.errors.BrokenPromiseError` instead of hanging (a
        detached task has no promise and no waiter).  Returns the number
        of tasks discarded.
        """
        dropped = self.scheduler.drain()
        for task in dropped:
            task.state = _TERMINATED
            promise = task.promise
            if promise is not None and not promise.is_ready():
                promise.break_promise()
        return len(dropped)

    # Submission ------------------------------------------------------------------
    def submit(
        self,
        fn: Callable[..., Any],
        *args: Any,
        kwargs: dict[str, Any] | None = None,
        worker: int | None = None,
        ready_time: float | None = None,
        description: Label = "",
        priority: ThreadPriority | None = None,
    ) -> Future:
        """Queue ``fn(*args)`` as a new HPX-thread; returns its future.

        ``worker`` pins the task to that worker's queue; ``ready_time``
        overrides the virtual time at which it may start (parcel
        arrivals); ``priority`` jumps scheduler queues
        (:class:`~repro.runtime.threads.hpx_thread.ThreadPriority`).  By
        default a task becomes ready at the submitter's current virtual
        time with normal priority.
        """
        return self._spawn(
            fn, args, kwargs, worker, ready_time, description, priority, False
        ).get_future()

    def post(
        self,
        fn: Callable[..., Any],
        *args: Any,
        kwargs: dict[str, Any] | None = None,
        worker: int | None = None,
        ready_time: float | None = None,
        description: Label = "",
        priority: ThreadPriority | None = None,
    ) -> None:
        """:meth:`submit` without a result: a detached HPX-thread
        (``hpx::post``).

        For work whose future nobody could read -- one-way parcel
        handlers, continuation bodies that fulfil their own promise,
        reply deliveries.  No promise, shared state or future is
        allocated; the task is scheduled, counted and probed like any
        other, and an exception it raises still lands in
        :attr:`failures`.
        """
        self._spawn(fn, args, kwargs, worker, ready_time, description, priority, True)

    def _spawn(
        self,
        fn: Callable[..., Any],
        args: tuple[Any, ...],
        kwargs: dict[str, Any] | None,
        worker: int | None,
        ready_time: float | None,
        description: Label,
        priority: ThreadPriority | None,
        detached: bool,
    ) -> HpxThread:
        if ready_time is None:
            # Inlined ``self.now``: one stack peek instead of a property
            # call -- spawning is the busiest entry point in the runtime.
            frame = _context_stack[-1] if _context_stack else None
            if frame is not None and frame.pool is self and frame.task is not None:
                ready_time = frame.task.current_virtual_time()
            else:
                ready_time = self.makespan
        task = HpxThread(fn, args, kwargs, description, ready_time, priority, detached)
        if instrument.enabled and (probe := instrument.probe) is not None:
            probe.task_created(ctx.current_task(), task)
        scheduler = self.scheduler
        scheduler.push(task, worker)
        if scheduler.size > self.peak_pending:
            self.peak_pending = scheduler.size
        return task

    # Execution -------------------------------------------------------------------
    def earliest_worker(self) -> _Worker:
        """The worker that frees up first (lowest id on ties).

        ``self.workers`` is stored in id order and the strict ``<`` keeps
        the lowest id on availability ties.  This is *the* scan of a
        dispatch: the runtime's locality scan takes its start hint from
        the worker found here and hands the same worker to
        :meth:`dispatch`.
        """
        workers = self.workers
        best = workers[0]
        for worker in workers:
            if worker.available_at < best.available_at:
                best = worker
        return best

    def _take(self, best: _Worker) -> tuple[HpxThread, _Worker] | tuple[None, None]:
        """A task for ``best`` (the earliest worker), or for the next
        earliest worker that can find one.

        Only when ``best``'s acquire fails (a static scheduler with an
        empty bound queue, or a thief out of attempts) does the sorted
        fallback over the other workers run.
        """
        controller = self.controller
        if controller is not None:
            # Schedule-exploration seam: surface the whole ready set and
            # let the strategy pick.  The chosen task runs on the
            # earliest-available worker regardless of any static
            # placement hint -- exploration probes *logical* orderings,
            # not placement.
            candidates = self.scheduler.snapshot()
            if not candidates:
                return None, None
            task = controller.choose(self, candidates)
            if task is None or not self.scheduler.remove(task):
                return None, None
            return task, best
        task = self.scheduler.acquire(best.worker_id)
        if task is not None:
            return task, best
        for worker in sorted(self.workers, key=lambda w: (w.available_at, w.worker_id)):
            if worker is best:
                continue
            task = self.scheduler.acquire(worker.worker_id)
            if task is not None:
                return task, worker
        return None, None

    def _next(self) -> tuple[HpxThread, _Worker] | tuple[None, None]:
        """Pick the (task, worker) pair that can start earliest."""
        return self._take(self.earliest_worker())

    def dispatch(self, best: _Worker, not_before: float = 0.0) -> bool:
        """Execute one queued task; False if none was available.

        ``best`` is what :meth:`earliest_worker` returned.  ``not_before``
        lies past ``best``'s own clock only when the node is down until
        then (a scheduled outage): every core becomes available again at
        the end of the window, and the earliest worker is chosen anew.
        """
        if not_before > best.available_at:
            for worker in self.workers:
                if worker.available_at < not_before:
                    worker.available_at = not_before
            best = self.earliest_worker()
        task, worker = self._take(best)
        if task is None:
            return False
        self._execute(task, worker)
        return True

    def _execute(self, task: HpxThread, worker: _Worker) -> None:
        task.worker_id = worker.worker_id
        available_at = worker.available_at
        ready_time = task.ready_time
        task.start_time = available_at if available_at >= ready_time else ready_time
        task.state = _RUNNING
        runtime = self.runtime
        locality = self.locality
        if runtime is None or locality is None:
            # Bare pools (no Locality/Runtime backref) inherit from the
            # enclosing frame; runtime-managed pools skip the lookup.
            outer = _context_stack[-1] if _context_stack else None
            if outer is not None:
                if runtime is None:
                    runtime = outer.runtime
                if locality is None:
                    locality = outer.locality
        frame = ctx.ExecutionContext(runtime, locality, self, worker.worker_id, task)
        # Balanced push/pop inlined as list ops -- this pair runs once
        # per task and the function-call overhead of ctx.push/ctx.pop is
        # measurable at that rate.
        _context_stack.append(frame)
        self._in_flight += 1
        probe = instrument.probe if instrument.enabled else None
        try:
            if probe is not None:
                probe.task_started(task)
            promise = task._promise
            try:
                result = task.fn(*task.args, **task.kwargs)
            except BaseException as exc:  # noqa: BLE001 - forwarded via future
                task.state = _TERMINATED
                task.finish_time = task.current_virtual_time()
                if promise is not None:
                    promise.set_exception(exc)
                self.failures.append((task, exc))
            else:
                task.state = _TERMINATED
                task.finish_time = task.current_virtual_time()
                if promise is not None:
                    promise.set_value(result)
            # The worker's clock and counters move before the probe hears
            # of it: an observer reading counters at ``task_finished``
            # (the sampler) sees this task included.
            if task.finish_time > worker.available_at:
                worker.available_at = task.finish_time
            worker.tasks_run += 1
            worker.busy_time += task._cost
            self.tasks_executed += 1
            if probe is not None:
                probe.task_finished(task)
        finally:
            self._in_flight -= 1
            _context_stack.pop()

    def next_start_hint(self) -> float:
        """Lower bound on when this pool's next task could start;
        +inf when nothing is queued."""
        if not self.scheduler.size:
            return _INF
        return self.earliest_worker().available_at

    def run_until(self, predicate: Callable[[], bool]) -> None:
        """Execute queued tasks until ``predicate()`` is true.

        Raises :class:`DeadlockError` when the predicate is false and no
        runnable work remains -- every remaining task waits on an LCO
        nobody can fire.
        """
        if self._help_depth >= self.MAX_HELP_DEPTH:
            raise DeadlockError(
                f"blocking-wait depth exceeded {self.MAX_HELP_DEPTH}; "
                "likely an unbounded chain of mutually blocking tasks"
            )
        self._help_depth += 1
        try:
            while not predicate():
                task, worker = self._next()
                if task is None:
                    probe = instrument.probe
                    if probe is not None:
                        # A deadlock detector raises its own richer error
                        # (rendered wait cycle) from this hook.
                        probe.stalled(self)
                    raise DeadlockError(
                        "no runnable work while tasks wait on unsatisfied "
                        "dependencies (cooperative deadlock)"
                    )
                self._execute(task, worker)
        finally:
            self._help_depth -= 1

    def run_before(self, predicate: Callable[[], bool], deadline: float) -> bool:
        """Execute queued tasks that can start at or before virtual
        ``deadline`` until ``predicate()``; returns the final predicate
        value instead of raising on a stall (timeout machinery)."""
        while not predicate():
            if self.next_start_hint() > deadline:
                return predicate()
            task, worker = self._next()
            if task is None:
                return predicate()
            self._execute(task, worker)
        return True

    def run_all(self) -> float:
        """Drain every queued task; returns the resulting makespan."""
        while len(self.scheduler):
            task, worker = self._next()
            if task is None:  # pragma: no cover - scheduler invariant
                raise DeadlockError("scheduler reports work but yields none")
            self._execute(task, worker)
        return self.makespan

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ThreadPool({self.name!r}, workers={self.n_workers}, "
            f"scheduler={self.scheduler.name}, makespan={self.makespan:.3e})"
        )
