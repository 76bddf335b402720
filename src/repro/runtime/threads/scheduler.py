"""Task schedulers: FIFO, static, and work-stealing.

HPX's default scheduler keeps one lock-free deque per worker and steals
when a worker runs dry; ``schedule(static)``-style executors bind chunks
to workers with no stealing.  The cooperative analogues here preserve
the *placement decisions* (which worker runs which task, and when a
steal happens), which is what matters for the virtual-time model; they
need no locks because execution is single-threaded.

Everything here is hot: the queue depth is read on every
progress-engine step and ``acquire`` runs on every task dispatch, so
every scheduler keeps its depth in a plain ``size`` attribute (no
per-call sums over deques, no method call to read it) and the work-stealing
scheduler keeps a live set of victims that actually hold stealable
work, so thieves stop probing obviously-empty queues.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Container, Generic, Optional, TypeVar

from ...errors import ConfigError, RuntimeStateError
from .. import instrument
from .hpx_thread import HpxThread, ThreadPriority

if TYPE_CHECKING:  # pragma: no cover
    from .pool import ThreadPool

__all__ = [
    "Scheduler",
    "FifoScheduler",
    "StaticScheduler",
    "WeightedFairQueues",
    "WorkStealingScheduler",
    "make_scheduler",
]

T = TypeVar("T")

#: Priorities in service order: HIGH tasks always run before NORMAL/LOW
#: on the same worker (HPX's priority-queue scheduler behaviour).
_PRIORITIES = (ThreadPriority.HIGH, ThreadPriority.NORMAL, ThreadPriority.LOW)

_NORMAL = ThreadPriority.NORMAL
_HIGH = ThreadPriority.HIGH
_LOW = ThreadPriority.LOW


class _PriorityDeques:
    """A bundle of one deque per priority level.

    One deque per slot instead of a priority→deque dict: the dominant
    workload queues only NORMAL tasks, so the common pop is a single
    truthiness branch.  ``size`` counts everything queued; ``regular``
    counts HIGH+NORMAL only -- the stealable portion (see
    :meth:`pop_back`) -- and both are maintained incrementally so
    schedulers never scan to learn a length.
    """

    __slots__ = ("_high", "_normal", "_low", "size", "regular")

    def __init__(self) -> None:
        self._high: deque[HpxThread] = deque()
        self._normal: deque[HpxThread] = deque()
        self._low: deque[HpxThread] = deque()
        self.size = 0
        self.regular = 0

    def push(self, task: HpxThread) -> None:
        # HpxThread.__init__ normalises priority through ThreadPriority(),
        # so identity comparison against the enum members is sound.
        priority = task.priority
        if priority is _NORMAL:
            self._normal.append(task)
            self.regular += 1
        elif priority is _HIGH:
            self._high.append(task)
            self.regular += 1
        else:
            self._low.append(task)
        self.size += 1

    def pop_front(self) -> Optional[HpxThread]:
        """Owner pop: highest priority first, FIFO within a level."""
        if self._high:
            self.size -= 1
            self.regular -= 1
            return self._high.popleft()
        if self._normal:
            self.size -= 1
            self.regular -= 1
            return self._normal.popleft()
        if self._low:
            self.size -= 1
            return self._low.popleft()
        return None

    def pop_back(self) -> Optional[HpxThread]:
        """Thief pop: regular work only, oldest within a level.

        LOW is background work (virtual-time timers); stealing it would
        let a timer fire on an idle thief while regular tasks queued on
        *other* victims are still runnable -- a priority inversion.  It
        stays with its owner, which pops it only when it has nothing
        better (:meth:`pop_front`).
        """
        if self._high:
            self.size -= 1
            self.regular -= 1
            return self._high.pop()
        if self._normal:
            self.size -= 1
            self.regular -= 1
            return self._normal.pop()
        return None

    def drain(self) -> list[HpxThread]:
        """Remove and return every queued task (crash decommissioning)."""
        drained: list[HpxThread] = []
        drained.extend(self._high)
        drained.extend(self._normal)
        drained.extend(self._low)
        self._high.clear()
        self._normal.clear()
        self._low.clear()
        self.size = 0
        self.regular = 0
        return drained

    def snapshot(self) -> list[HpxThread]:
        """Every queued task, service order, without removing anything."""
        return [*self._high, *self._normal, *self._low]

    def remove(self, task: HpxThread) -> bool:
        """Remove ``task`` from whichever level holds it (O(n) scan --
        schedule-exploration only, never on the production dispatch path)."""
        for queue, regular in (
            (self._high, True),
            (self._normal, True),
            (self._low, False),
        ):
            try:
                queue.remove(task)
            except ValueError:
                continue
            self.size -= 1
            if regular:
                self.regular -= 1
            return True
        return False

    def __len__(self) -> int:
        return self.size


class WeightedFairQueues(Generic[T]):
    """Stride scheduling over named flows, one FIFO deque per flow.

    The same shape as the per-worker :class:`_PriorityDeques` bundle one
    level up: explicit incremental size counters, deque storage, and a
    deterministic pop order.  Here the "priority" axis is *fairness
    between flows* instead of urgency within one queue: every flow
    carries a weight, each pop advances the flow's virtual pass by
    ``scale / weight``, and :meth:`pop` always serves the non-empty flow
    with the smallest pass (ties broken by flow name, so the order is a
    pure function of the push/pop history).  A flow with weight 2 is
    therefore served twice as often as a weight-1 flow under sustained
    backlog, and an idle flow accumulates no credit: when it becomes
    non-empty again its pass is advanced to the current global floor.

    The multi-tenant job service layers its per-tenant scheduling on
    this structure; it is generic so queued items can be jobs, tasks, or
    anything else with FIFO-per-flow semantics.
    """

    __slots__ = ("scale", "_queues", "_weights", "_passes", "size")

    def __init__(self, scale: float = 1024.0) -> None:
        if scale <= 0:
            raise ConfigError("WeightedFairQueues scale must be positive")
        self.scale = scale
        self._queues: dict[str, deque[T]] = {}
        self._weights: dict[str, float] = {}
        self._passes: dict[str, float] = {}
        self.size = 0

    def set_weight(self, flow: str, weight: float) -> None:
        """Register ``flow`` (or update its weight).  Weight must be > 0."""
        if weight <= 0:
            raise ConfigError(f"flow {flow!r} weight must be positive, got {weight}")
        self._weights[flow] = weight
        if flow not in self._queues:
            self._queues[flow] = deque()
            self._passes[flow] = self._floor()

    def _floor(self) -> float:
        """Global virtual-pass floor: min pass among backlogged flows."""
        backlogged = [
            self._passes[flow] for flow, q in self._queues.items() if q
        ]
        return min(backlogged, default=0.0)

    def push(self, flow: str, item: T) -> None:
        """Queue ``item`` on ``flow`` (registered with weight 1 if new)."""
        if flow not in self._queues:
            self.set_weight(flow, self._weights.get(flow, 1.0))
        queue = self._queues[flow]
        if not queue:
            # Re-entering service: no credit accrues while idle.
            self._passes[flow] = max(self._passes[flow], self._floor())
        queue.append(item)
        self.size += 1

    def pop(self, skip: Container[str] = ()) -> Optional[tuple[str, T]]:
        """Serve the eligible flow with the smallest virtual pass.

        Flows named in ``skip`` (e.g. tenants at their concurrency cap)
        are passed over without being charged.  Returns ``(flow, item)``
        or None when every non-empty flow is skipped.
        """
        best: Optional[str] = None
        best_pass = 0.0
        for flow in sorted(self._queues):
            if not self._queues[flow] or flow in skip:
                continue
            flow_pass = self._passes[flow]
            if best is None or flow_pass < best_pass:
                best = flow
                best_pass = flow_pass
        if best is None:
            return None
        item = self._queues[best].popleft()
        self._passes[best] = best_pass + self.scale / self._weights[best]
        self.size -= 1
        return (best, item)

    def pending(self, flow: Optional[str] = None) -> int:
        if flow is None:
            return self.size
        queue = self._queues.get(flow)
        return len(queue) if queue else 0

    def flows(self) -> list[str]:
        """Registered flow names, sorted."""
        return sorted(self._queues)

    def remove(self, flow: str, item: T) -> bool:
        """Withdraw one queued item (cancellation); O(n) on the flow."""
        queue = self._queues.get(flow)
        if not queue:
            return False
        try:
            queue.remove(item)
        except ValueError:
            return False
        self.size -= 1
        return True

    def __len__(self) -> int:
        return self.size


class Scheduler:
    """Interface: queue tasks, hand them to workers."""

    name = "abstract"

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise RuntimeStateError("scheduler needs at least one worker")
        self.n_workers = n_workers
        #: Queued tasks, maintained by every push/acquire/drain/remove;
        #: what ``len(scheduler)`` returns, readable without a call.
        self.size = 0
        #: The pool this scheduler serves (set by the pool): a reported
        #: steal is stamped with the thief's clock and the pool's name.
        self.pool: "ThreadPool | None" = None

    def push(self, task: HpxThread, worker_hint: Optional[int] = None) -> None:
        """Queue a task, optionally bound/hinted to a worker."""
        raise NotImplementedError

    def acquire(self, worker_id: int) -> Optional[HpxThread]:
        """Get a task for ``worker_id`` or None if it can find none."""
        raise NotImplementedError

    def drain(self) -> list[HpxThread]:
        """Remove and return every queued task (crash decommissioning)."""
        raise NotImplementedError

    def snapshot(self) -> list[HpxThread]:
        """Every queued task in canonical (worker, service) order.

        The schedule-controller seam: an exploration strategy inspects
        the full ready set at a dispatch point, then claims its pick via
        :meth:`remove`.  Production dispatch never calls this.
        """
        raise NotImplementedError

    def remove(self, task: HpxThread) -> bool:
        """Withdraw a specific queued task (claimed by a controller).

        Returns False if the task is not queued here.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        return self.size

    def pending_low(self) -> int:
        """Queued LOW-priority (sheddable background) tasks.

        The overload perfcounters split queue depth by sheddability;
        ``size - regular`` is already maintained incrementally, so this
        costs no scan.
        """
        raise NotImplementedError

    def _check_worker(self, worker_id: Optional[int]) -> None:
        if worker_id is not None and not 0 <= worker_id < self.n_workers:
            raise RuntimeStateError(
                f"worker {worker_id} out of range [0, {self.n_workers})"
            )


class FifoScheduler(Scheduler):
    """One global priority-FIFO queue; worker hints are ignored."""

    name = "fifo"

    def __init__(self, n_workers: int) -> None:
        super().__init__(n_workers)
        self._queue = _PriorityDeques()

    def push(self, task: HpxThread, worker_hint: Optional[int] = None) -> None:
        self._check_worker(worker_hint)
        self._queue.push(task)
        self.size += 1

    def acquire(self, worker_id: int) -> Optional[HpxThread]:
        self._check_worker(worker_id)
        task = self._queue.pop_front()
        if task is not None:
            self.size -= 1
        return task

    def drain(self) -> list[HpxThread]:
        self.size = 0
        return self._queue.drain()

    def snapshot(self) -> list[HpxThread]:
        return self._queue.snapshot()

    def remove(self, task: HpxThread) -> bool:
        removed = self._queue.remove(task)
        if removed:
            self.size -= 1
        return removed

    def pending_low(self) -> int:
        return self._queue.size - self._queue.regular


class StaticScheduler(Scheduler):
    """Per-worker FIFO queues, no stealing (OpenMP ``schedule(static)``).

    Unhinted tasks are distributed round-robin.  A worker that drains its
    queue idles even if others are loaded -- exactly the imbalance the
    work-stealing ablation benchmark measures.
    """

    name = "static"

    def __init__(self, n_workers: int) -> None:
        super().__init__(n_workers)
        self._queues = [_PriorityDeques() for _ in range(n_workers)]
        self._rr = 0

    def push(self, task: HpxThread, worker_hint: Optional[int] = None) -> None:
        if worker_hint is None:
            worker_hint = self._rr
            self._rr = (self._rr + 1) % self.n_workers
        else:
            self._check_worker(worker_hint)
        task.worker_id = worker_hint
        self._queues[worker_hint].push(task)
        self.size += 1

    def acquire(self, worker_id: int) -> Optional[HpxThread]:
        self._check_worker(worker_id)
        task = self._queues[worker_id].pop_front()
        if task is not None:
            self.size -= 1
        return task

    def drain(self) -> list[HpxThread]:
        drained: list[HpxThread] = []
        for queue in self._queues:
            drained.extend(queue.drain())
        self.size = 0
        return drained

    def snapshot(self) -> list[HpxThread]:
        tasks: list[HpxThread] = []
        for queue in self._queues:
            tasks.extend(queue.snapshot())
        return tasks

    def remove(self, task: HpxThread) -> bool:
        for queue in self._queues:
            if queue.remove(task):
                self.size -= 1
                return True
        return False

    def pending_low(self) -> int:
        return sum(q.size - q.regular for q in self._queues)


class WorkStealingScheduler(Scheduler):
    """Per-worker deques with deterministic round-robin stealing.

    Owners pop FIFO from the front of their deque (HPX default for
    fairness); thieves steal from the back, which takes the oldest work a
    victim queued -- the classic contention-minimising split.

    ``_stealable`` tracks which workers currently hold regular
    (HIGH/NORMAL) work.  The steal loop still *visits* the same victims
    in the same round-robin order -- placement decisions are untouched --
    but a victim known to be empty costs a set-membership test instead
    of a deque probe.
    """

    name = "work-stealing"

    def __init__(self, n_workers: int, steal_attempts: int | None = None) -> None:
        super().__init__(n_workers)
        self._queues = [_PriorityDeques() for _ in range(n_workers)]
        self._rr = 0
        self.steal_attempts = (
            n_workers - 1 if steal_attempts is None else min(steal_attempts, n_workers - 1)
        )
        self.steals = 0  # statistic: successful steals
        self._stealable: set[int] = set()

    def push(self, task: HpxThread, worker_hint: Optional[int] = None) -> None:
        if worker_hint is None:
            worker_hint = self._rr
            self._rr = (self._rr + 1) % self.n_workers
        else:
            self._check_worker(worker_hint)
        self._queues[worker_hint].push(task)
        self.size += 1
        if task.priority is not _LOW:
            self._stealable.add(worker_hint)

    def acquire(self, worker_id: int) -> Optional[HpxThread]:
        self._check_worker(worker_id)
        own = self._queues[worker_id]
        task = own.pop_front()
        if task is not None:
            self.size -= 1
            if not own.regular:
                self._stealable.discard(worker_id)
            task.worker_id = worker_id
            return task
        # Steal round-robin from the next victims.  Empty victims are
        # still "visited" (k advances identically) so the attempt-budget
        # semantics -- and therefore every placement -- are unchanged.
        stealable = self._stealable
        for k in range(1, self.steal_attempts + 1):
            victim = (worker_id + k) % self.n_workers
            if victim not in stealable:
                continue
            queue = self._queues[victim]
            task = queue.pop_back()
            if not queue.regular:
                stealable.discard(victim)
            if task is not None:
                self.size -= 1
                task.worker_id = worker_id
                self.steals += 1
                if instrument.enabled:
                    self._report_steal(task, worker_id)
                return task
        return None

    def _report_steal(self, task: HpxThread, thief: int) -> None:
        probe, pool = instrument.probe, self.pool
        if probe is not None and pool is not None:
            # The stolen task starts when it is ready and the thief free.
            probe.event(
                "steal",
                max(task.ready_time, pool.workers[thief].available_at),
                pool.name,
                thief,
                args={"tid": task.tid},
            )

    def drain(self) -> list[HpxThread]:
        drained: list[HpxThread] = []
        for queue in self._queues:
            drained.extend(queue.drain())
        self.size = 0
        self._stealable.clear()
        return drained

    def snapshot(self) -> list[HpxThread]:
        tasks: list[HpxThread] = []
        for queue in self._queues:
            tasks.extend(queue.snapshot())
        return tasks

    def remove(self, task: HpxThread) -> bool:
        for worker_id, queue in enumerate(self._queues):
            if queue.remove(task):
                self.size -= 1
                if not queue.regular:
                    self._stealable.discard(worker_id)
                return True
        return False

    def pending_low(self) -> int:
        return sum(q.size - q.regular for q in self._queues)


def make_scheduler(name: str, n_workers: int, steal_attempts: int | None = None) -> Scheduler:
    """Factory keyed by the ``threads.scheduler`` config value."""
    if name == "fifo":
        return FifoScheduler(n_workers)
    if name == "static":
        return StaticScheduler(n_workers)
    if name == "work-stealing":
        return WorkStealingScheduler(n_workers, steal_attempts)
    raise ConfigError(f"unknown scheduler {name!r}")
