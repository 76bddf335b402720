"""The task scheduler: FIFO, static, and work-stealing as one class.

HPX's default scheduler keeps one lock-free deque per worker and steals
when a worker runs dry; ``schedule(static)``-style executors bind chunks
to workers with no stealing.  The cooperative analogue here preserves
the *placement decisions* (which worker runs which task, and when a
steal happens), which is what matters for the virtual-time model; it
needs no locks because execution is single-threaded.

Everything here is hot: the queue depth is read on every
progress-engine step and ``acquire`` runs on every task dispatch, so
the scheduler keeps its depth in a plain ``size`` attribute (no
per-call sums over deques, no method call to read it) and a live set of
victims that actually hold stealable work, so thieves stop probing
obviously-empty queues.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from ...errors import ConfigError, RuntimeStateError
from .. import instrument
from .hpx_thread import HpxThread, ThreadPriority

if TYPE_CHECKING:  # pragma: no cover
    from .pool import ThreadPool

__all__ = ["Scheduler"]

# HpxThread.__init__ normalises priority through ThreadPriority(), so
# identity comparison against the enum members is sound.
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
        drained = self.snapshot()
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


#: The ``threads.scheduler`` policy names.
_POLICIES = ("fifo", "static", "work-stealing")


class Scheduler:
    """Priority deques, a worker → queue map and a steal budget.

    The three ``threads.scheduler`` policies are one body and two numbers:

    * ``work-stealing`` (HPX's default): one deque bundle per worker;
      owners pop FIFO from the front, and a worker that runs dry probes
      up to ``steal_attempts`` victims round-robin and steals from the
      back -- the oldest work the victim queued, the classic
      contention-minimising split;
    * ``static`` (OpenMP ``schedule(static)``) is work-stealing with a
      budget of 0: a worker that drains its queue idles even if others
      are loaded, the imbalance the work-stealing ablation measures;
    * ``fifo`` is static with one queue that every worker owns: hints
      are validated and land in the one global priority-FIFO.

    Unhinted tasks are distributed round-robin.  ``_stealable`` tracks
    which workers currently hold regular (HIGH/NORMAL) work.  The steal
    loop still *visits* the same victims in the same round-robin order
    -- placement decisions are untouched -- but a victim known to be
    empty costs a set-membership test instead of a deque probe.
    """

    def __init__(
        self,
        n_workers: int,
        name: str = "work-stealing",
        steal_attempts: int | None = None,
    ) -> None:
        if n_workers < 1:
            raise RuntimeStateError("scheduler needs at least one worker")
        if name not in _POLICIES:
            raise ConfigError(f"unknown scheduler {name!r}")
        self.name = name
        self.n_workers = n_workers
        #: Queued tasks, maintained by every push/acquire/drain/remove;
        #: what ``len(scheduler)`` returns, readable without a call.
        self.size = 0
        #: The pool this scheduler serves (set by the pool): a reported
        #: steal is stamped with the thief's clock and the pool's name.
        self.pool: "ThreadPool | None" = None
        #: The distinct queues, and the queue each worker owns (``fifo``:
        #: the one queue, aliased once per worker).
        fifo = name == "fifo"
        self._queues = [_PriorityDeques() for _ in range(1 if fifo else n_workers)]
        self._own = self._queues * n_workers if fifo else self._queues
        self._rr = 0
        if name != "work-stealing":
            steal_attempts = 0
        elif steal_attempts is None:
            steal_attempts = n_workers - 1
        self.steal_attempts = min(steal_attempts, n_workers - 1)
        self.steals = 0  # statistic: successful steals
        self._stealable: set[int] = set()

    def push(self, task: HpxThread, worker_hint: Optional[int] = None) -> None:
        """Queue a task, optionally bound/hinted to a worker."""
        if worker_hint is None:
            worker_hint = self._rr
            self._rr = (self._rr + 1) % self.n_workers
        else:
            self._check_worker(worker_hint)
        self._own[worker_hint].push(task)
        self.size += 1
        if task.priority is not _LOW:
            self._stealable.add(worker_hint)

    def acquire(self, worker_id: int) -> Optional[HpxThread]:
        """Get a task for ``worker_id`` or None if it can find none."""
        self._check_worker(worker_id)
        own = self._own[worker_id]
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
            queue = self._own[victim]
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
        """Remove and return every queued task (crash decommissioning)."""
        drained: list[HpxThread] = []
        for queue in self._queues:
            drained.extend(queue.drain())
        self.size = 0
        self._stealable.clear()
        return drained

    def snapshot(self) -> list[HpxThread]:
        """Every queued task in canonical (queue, service) order.

        The schedule-controller seam: an exploration strategy inspects
        the full ready set at a dispatch point, then claims its pick via
        :meth:`remove`.  Production dispatch never calls this.
        """
        tasks: list[HpxThread] = []
        for queue in self._queues:
            tasks.extend(queue.snapshot())
        return tasks

    def remove(self, task: HpxThread) -> bool:
        """Withdraw a specific queued task (claimed by a controller).

        Returns False if the task is not queued here.
        """
        for worker_id, queue in enumerate(self._queues):
            if queue.remove(task):
                self.size -= 1
                if not queue.regular:
                    self._stealable.discard(worker_id)
                return True
        return False

    def pending_low(self) -> int:
        """Queued LOW-priority (sheddable background) tasks.

        The overload perfcounters split queue depth by sheddability;
        ``size - regular`` is already maintained incrementally, so this
        costs no scan.
        """
        return sum(q.size - q.regular for q in self._queues)

    def __len__(self) -> int:
        return self.size

    def _check_worker(self, worker_id: int) -> None:
        if not 0 <= worker_id < self.n_workers:
            raise RuntimeStateError(
                f"worker {worker_id} out of range [0, {self.n_workers})"
            )
