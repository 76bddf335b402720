"""HPX-style runtime performance counters.

HPX exposes introspection counters under paths like
``/threads{locality#0/total}/count/cumulative``; tools (and the papers
evaluating HPX) read them to explain scheduling behaviour.  This module
provides the same facility for our runtime: :func:`query` resolves a
counter path against a :class:`~repro.runtime.runtime.Runtime` and
:func:`discover` lists what is available.

Supported counter types::

    /threads/count/cumulative      tasks executed
    /threads/count/stolen          successful steals (work-stealing only)
    /threads/queue/length          tasks currently queued
    /threads/queue/length-low      LOW-priority (sheddable) tasks queued
    /threads/time/average          average attributed cost per task (s)
    /threads/time/busy             attributed compute seconds
    /threads/idle-rate             idle fraction of the pool's makespan
    /parcels/count/sent            parcels sent (job-wide counter only)
    /parcels/data/sent             bytes sent   (job-wide counter only)
    /parcels/count/delivered       parcels handed to the destination router
    /parcels/time/average-latency  mean send-to-arrival virtual latency (s)
    /parcels/count/dropped         parcels lost in flight (fault injection)
    /parcels/count/corrupted       parcels corrupted in flight
    /parcels/count/duplicated      parcels delivered twice by the network
    /parcels/count/delayed         parcels hit by a delay spike
    /parcels/count/retried         retransmissions scheduled by the retry layer
    /parcels/count/retries-in-flight  retransmissions scheduled but not yet sent
    /parcels/count/dead-lettered   parcels abandoned after exhausting retries
    /parcels/count/shed-lettered   sheds recorded in the dead-letter queue
    /parcels/count/dead-letter-evicted  oldest entries evicted past dlq_max
    /parcels/queue/dead-letter     dead-letter queue length right now (gauge)
    /overload/count/shed           parcels refused by admission control
    /overload/count/deferred       LOW-parcel deferrals (seeded backoff)
    /overload/count/credits-stalled  sends parked awaiting a credit
    /overload/count/credit-resumes   stalled sends released by an ack
    /overload/count/completed      credited/probe parcels acked
    /overload/queue/stalled        sends currently parked (gauge)
    /breaker/count/opens           circuit-breaker open transitions
    /breaker/count/closes          breakers closed by a successful probe
    /breaker/count/half-open-probes  probe parcels admitted while half-open
    /phi/suspicion                 max phi-accrual suspicion across peers
    /localities/count/failed       scheduled locality outages
    /localities/count/decommissioned  localities declared permanently dead
    /checkpoints/count/saved       checkpoint epochs written
    /checkpoints/count/restored    successful checkpoint restores
    /checkpoints/count/fallbacks   restores that fell back past an epoch
    /checkpoints/count/corrupt-skipped  corrupt epochs skipped (warned)
    /checkpoints/data/saved        serialized checkpoint bytes written
    /checkpoints/time/save         virtual seconds charged for saves
    /checkpoints/time/restore      virtual seconds charged for restores
    /backend{total}/count/forwarded      parcels shipped to another process
    /backend{total}/count/received       parcels delivered from another process
    /backend{total}/count/relayed        worker-to-worker parcels relayed here
    /backend{total}/count/replies-sent   serialized reply messages sent
    /backend{total}/count/replies-received  reply messages consumed
    /backend{total}/count/messages       wire messages sent to other processes
    /backend{total}/data/sent            wire bytes sent to other processes
    /backend{total}/count/agas-creates   AGAS registrations mirrored out
    /backend{total}/count/sync-rounds    termination-detection rounds run
    /backend{total}/count/processes      OS processes in the job (driver only)
    /backend{total}/count/remote-tasks   tasks executed in worker processes
    /backend{total}/count/remote-parcels parcels sent by worker parcelports
    /runtime/uptime                virtual makespan (s)

All ``/backend`` counters read 0.0 on the virtual clock, where
``Runtime.backend`` is None, so consumers need no feature test; the
``remote-*`` aggregates are collected from the workers' ``("stopped",
...)`` statistics and are final only after :meth:`Runtime.stop`.

Instance syntax: ``{locality#N/total}`` selects one locality,
``{locality#N/worker#W}`` selects one worker of one locality (thread
counters only), ``{total}`` (or no braces) aggregates over the job.

Job-wide ``time/average`` and ``idle-rate`` are *weighted* aggregates:
total busy time over total task count (resp. total capacity), so a
locality that ran 10k tasks carries 10k times the weight of one that
ran a single task.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..errors import RuntimeStateError

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Runtime
    from .threads.pool import ThreadPool, _Worker

__all__ = ["query", "discover"]

_PATH = re.compile(
    r"^/(?P<object>[a-z]+)"
    r"(?:\{(?P<instance>[^}]*)\})?"
    r"/(?P<counter>[a-z/-]+)$"
)

_LOCALITY = re.compile(r"^locality#(?P<id>\d+)/total$")
_WORKER = re.compile(r"^locality#(?P<id>\d+)/worker#(?P<worker>\d+)$")

_Reader = Callable[["Runtime"], float]
_PoolsReader = Callable[[Sequence["ThreadPool"]], float]
_WorkerReader = Callable[["ThreadPool", "_Worker"], float]


def _ratio(total: float, count: float) -> float:
    return total / count if count else 0.0


def _idle(busy: float, capacity: float) -> float:
    return max(0.0, 1.0 - busy / capacity) if capacity else 0.0


def _summed(read: Callable[["ThreadPool"], float]) -> _PoolsReader:
    return lambda pools: sum(read(pool) for pool in pools)


_tasks = _summed(attrgetter("tasks_executed"))
_busy = _summed(lambda pool: sum(w.busy_time for w in pool.workers))

#: ``/threads`` counter suffix -> (reader over the pools in view, reader
#: of one worker or None).  A locality instance puts one pool in view,
#: ``{total}`` all of them, so the two ratios weight every pool by its
#: load: busy seconds over tasks, and busy seconds over the job makespan
#: times every worker in view.
_THREADS: dict[str, tuple[_PoolsReader, _WorkerReader | None]] = {
    "count/cumulative": (_tasks, lambda pool, worker: worker.tasks_run),
    "count/stolen": (_summed(attrgetter("steals")), None),
    "queue/length": (_summed(lambda pool: pool.pending()), None),
    "queue/length-low": (_summed(lambda pool: pool.pending_low()), None),
    "time/average": (lambda pools: _ratio(_busy(pools), _tasks(pools)), None),
    "time/busy": (_busy, lambda pool, worker: worker.busy_time),
    "idle-rate": (
        lambda pools: _idle(
            _busy(pools),
            max(p.makespan for p in pools) * sum(p.n_workers for p in pools),
        ),
        lambda pool, worker: _idle(worker.busy_time, pool.makespan),
    ),
}


def _controller(read: Callable[[Any], float]) -> _Reader:
    """Reader of the overload controller: 0.0 when none is installed, so
    counter consumers need no feature test."""
    return lambda rt: 0.0 if rt._overload is None else read(rt._overload)


def _backend(key: str) -> _Reader:
    """Reader of one ``Runtime.backend.counters()`` key: 0.0 on the
    virtual clock, where there is no backend."""
    return lambda rt: 0.0 if rt.backend is None else rt.backend.counters().get(key, 0.0)


def _phi_suspicion(rt: "Runtime") -> float:
    controller = rt._overload
    return 0.0 if controller is None else controller.phi.suspicion(rt.makespan)


#: The job-wide catalogue: object -> counter suffix -> reader(runtime).
#: ``query`` looks a path up here and ``discover`` lists these rows in
#: this order, so a new counter is one row (plus its docstring line).
_CATALOGUE: dict[str, dict[str, _Reader]] = {
    "parcels": {
        "count/sent": attrgetter("parcelport.parcels_sent"),
        "data/sent": attrgetter("parcelport.bytes_sent"),
        "count/delivered": attrgetter("parcelport.parcels_delivered"),
        "time/average-latency": lambda rt: _ratio(
            rt.parcelport.latency_total_s, rt.parcelport.parcels_delivered
        ),
        "count/retries-in-flight": lambda rt: (
            rt.parcelport.parcels_retried - rt.parcelport.parcels_retransmitted
        ),
        "queue/dead-letter": lambda rt: len(rt.parcelport.dead_letters),
        "count/dropped": attrgetter("parcelport.parcels_dropped"),
        "count/corrupted": attrgetter("parcelport.parcels_corrupted"),
        "count/duplicated": attrgetter("parcelport.parcels_duplicated"),
        "count/delayed": attrgetter("parcelport.parcels_delayed"),
        "count/retried": attrgetter("parcelport.parcels_retried"),
        "count/dead-lettered": attrgetter("parcelport.parcels_dead_lettered"),
        "count/shed-lettered": attrgetter("parcelport.parcels_shed_lettered"),
        "count/dead-letter-evicted": attrgetter("parcelport.parcels_dlq_evicted"),
    },
    "overload": {
        "count/shed": _controller(attrgetter("parcels_shed")),
        "count/deferred": _controller(attrgetter("parcels_deferred")),
        "count/credits-stalled": _controller(attrgetter("credit_stalls")),
        "count/credit-resumes": _controller(attrgetter("credit_resumes")),
        "count/completed": _controller(attrgetter("parcels_completed")),
        "queue/stalled": _controller(lambda controller: controller.stalled_count()),
    },
    "breaker": {
        "count/opens": _controller(attrgetter("breaker_opens")),
        "count/closes": _controller(attrgetter("breaker_closes")),
        "count/half-open-probes": _controller(attrgetter("breaker_probes")),
    },
    "phi": {"suspicion": _phi_suspicion},
    "localities": {
        "count/failed": attrgetter("localities_failed"),
        "count/decommissioned": lambda rt: len(rt.decommissioned),
    },
    "checkpoints": {
        "count/saved": attrgetter("checkpoints_saved"),
        "count/restored": attrgetter("checkpoints_restored"),
        "count/fallbacks": attrgetter("checkpoint_fallbacks"),
        "count/corrupt-skipped": attrgetter("checkpoint_corrupt_skipped"),
        "data/saved": attrgetter("checkpoint_bytes_saved"),
        "time/save": attrgetter("checkpoint_save_time_s"),
        "time/restore": attrgetter("checkpoint_restore_time_s"),
    },
    "backend": {
        "count/forwarded": _backend("parcels_forwarded"),
        "count/received": _backend("parcels_received"),
        "count/relayed": _backend("parcels_relayed"),
        "count/replies-sent": _backend("replies_sent"),
        "count/replies-received": _backend("replies_received"),
        "count/messages": _backend("messages_sent"),
        "data/sent": _backend("wire_bytes_sent"),
        "count/agas-creates": _backend("agas_creates"),
        "count/sync-rounds": _backend("sync_rounds"),
        "count/processes": _backend("processes"),
        "count/remote-tasks": _backend("remote_tasks_executed"),
        "count/remote-parcels": _backend("remote_parcels_sent"),
    },
    "runtime": {"uptime": attrgetter("makespan")},
}


def _has_controller(rt: "Runtime") -> bool:
    return rt._overload is not None


#: Objects ``discover`` lists only when the runtime has what they count
#: (``query`` answers 0.0 for them regardless).
_LISTED_IF: dict[str, Callable[["Runtime"], bool]] = {
    "overload": _has_controller,
    "breaker": _has_controller,
    "phi": _has_controller,
    "backend": attrgetter("distributed"),
}


def _query_threads(runtime: "Runtime", instance: str | None, counter: str) -> float:
    if counter not in _THREADS:
        raise RuntimeStateError(f"unknown threads counter {counter!r}")
    over_pools, of_worker = _THREADS[counter]
    if not instance or instance == "total":
        return float(over_pools([loc.pool for loc in runtime.localities]))
    worker_match = _WORKER.match(instance)
    if worker_match:
        pool = runtime.locality(int(worker_match.group("id"))).pool
        worker_id = int(worker_match.group("worker"))
        if not 0 <= worker_id < pool.n_workers:
            raise RuntimeStateError(
                f"worker {worker_id} out of range [0, {pool.n_workers})"
            )
        if of_worker is None:
            raise RuntimeStateError(
                f"threads counter {counter!r} has no per-worker instance"
            )
        return float(of_worker(pool, pool.workers[worker_id]))
    loc_match = _LOCALITY.match(instance)
    if not loc_match:
        raise RuntimeStateError(f"malformed instance {instance!r}")
    return float(over_pools([runtime.locality(int(loc_match.group("id"))).pool]))


def query(runtime: "Runtime", path: str) -> float:
    """Evaluate one counter path against a runtime."""
    match = _PATH.match(path)
    if not match:
        raise RuntimeStateError(f"malformed counter path {path!r}")
    obj, instance, counter = match.group("object", "instance", "counter")
    if obj == "threads":
        return _query_threads(runtime, instance, counter)
    if obj not in _CATALOGUE:
        raise RuntimeStateError(f"unknown counter object {obj!r}")
    if instance not in (None, "total"):
        raise RuntimeStateError(f"/{obj} counters are job-wide; use {{total}}")
    if counter not in _CATALOGUE[obj]:
        raise RuntimeStateError(f"unknown {obj} counter {counter!r}")
    return float(_CATALOGUE[obj][counter](runtime))


def discover(runtime: "Runtime") -> list[str]:
    """All concrete counter paths available on this runtime."""
    paths = []
    for counter in _THREADS:
        paths.append(f"/threads{{total}}/{counter}")
        for loc in runtime.localities:
            paths.append(f"/threads{{locality#{loc.locality_id}/total}}/{counter}")
    for counter, (_, of_worker) in _THREADS.items():
        if of_worker is not None:
            paths.extend(
                f"/threads{{locality#{loc.locality_id}/worker#{w.worker_id}}}/{counter}"
                for loc in runtime.localities
                for w in loc.pool.workers
            )
    for obj, counters in _CATALOGUE.items():
        if obj in _LISTED_IF and not _LISTED_IF[obj](runtime):
            continue
        # ``/runtime/uptime`` is the one path listed without an instance.
        instance = "" if obj == "runtime" else "{total}"
        paths.extend(f"/{obj}{instance}/{counter}" for counter in counters)
    return paths
