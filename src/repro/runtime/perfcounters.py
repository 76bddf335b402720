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
    /threads/queue/length-low      LOW-priority (sheddable) tasks queued
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
    /backend{total}/count/messages       wire messages written to the pipes
    /backend{total}/data/sent            wire bytes written to the pipes
    /backend{total}/count/agas-creates   AGAS registrations mirrored out
    /backend{total}/count/agas-resolves  cross-process GID resolutions brokered
    /backend{total}/count/sync-rounds    termination-detection rounds run
    /backend{total}/count/processes      OS processes in the job (driver only)
    /backend{total}/count/remote-tasks   tasks executed in worker processes
    /backend{total}/count/remote-parcels parcels sent by worker parcelports
    /runtime/uptime                virtual makespan (s)

All ``/backend`` counters read 0.0 on the virtual-clock backend, so
consumers need no feature test; the ``remote-*`` aggregates are
collected from the workers' ``("stopped", ...)`` statistics and are
final only after :meth:`Runtime.stop`.

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
from typing import TYPE_CHECKING

from ..errors import RuntimeStateError

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Runtime
    from .threads.pool import ThreadPool

__all__ = ["query", "discover"]

_PATH = re.compile(
    r"^/(?P<object>[a-z]+)"
    r"(?:\{(?P<instance>[^}]*)\})?"
    r"/(?P<counter>[a-z/-]+)$"
)

_LOCALITY = re.compile(r"^locality#(?P<id>\d+)/total$")
_WORKER = re.compile(r"^locality#(?P<id>\d+)/worker#(?P<worker>\d+)$")

#: Fault/retry statistics: counter path suffix -> Parcelport attribute.
_PARCEL_FAULT_COUNTERS = {
    "count/dropped": "parcels_dropped",
    "count/corrupted": "parcels_corrupted",
    "count/duplicated": "parcels_duplicated",
    "count/delayed": "parcels_delayed",
    "count/retried": "parcels_retried",
    "count/dead-lettered": "parcels_dead_lettered",
    "count/shed-lettered": "parcels_shed_lettered",
    "count/dead-letter-evicted": "parcels_dlq_evicted",
}

#: Overload admission statistics: counter suffix -> OverloadController
#: attribute.  All read 0.0 when no controller is installed, so counter
#: consumers need no feature test.
_OVERLOAD_COUNTERS = {
    "count/shed": "parcels_shed",
    "count/deferred": "parcels_deferred",
    "count/credits-stalled": "credit_stalls",
    "count/credit-resumes": "credit_resumes",
    "count/completed": "parcels_completed",
}

#: Circuit-breaker statistics: counter suffix -> OverloadController attribute.
_BREAKER_COUNTERS = {
    "count/opens": "breaker_opens",
    "count/closes": "breaker_closes",
    "count/half-open-probes": "breaker_probes",
}

#: Cross-process transport statistics: counter suffix -> key in
#: ``ExecutionBackend.counters()``.  The virtual backend returns an
#: empty dict, so every path reads 0.0 without a feature test.
_BACKEND_COUNTERS = {
    "count/forwarded": "parcels_forwarded",
    "count/received": "parcels_received",
    "count/relayed": "parcels_relayed",
    "count/replies-sent": "replies_sent",
    "count/replies-received": "replies_received",
    "count/messages": "messages_sent",
    "data/sent": "wire_bytes_sent",
    "count/agas-creates": "agas_creates",
    "count/agas-resolves": "agas_resolves",
    "count/sync-rounds": "sync_rounds",
    "count/processes": "processes",
    "count/remote-tasks": "remote_tasks_executed",
    "count/remote-parcels": "remote_parcels_sent",
}

#: Thread counters valid per worker (``{locality#N/worker#W}``).
_WORKER_COUNTERS = ("count/cumulative", "time/busy", "idle-rate")

#: Checkpoint statistics: counter path suffix -> Runtime attribute.
_CHECKPOINT_COUNTERS = {
    "count/saved": "checkpoints_saved",
    "count/restored": "checkpoints_restored",
    "count/fallbacks": "checkpoint_fallbacks",
    "count/corrupt-skipped": "checkpoint_corrupt_skipped",
    "data/saved": "checkpoint_bytes_saved",
    "time/save": "checkpoint_save_time_s",
    "time/restore": "checkpoint_restore_time_s",
}


def _pool_counter(pool: "ThreadPool", counter: str) -> float:
    if counter == "count/cumulative":
        return float(pool.tasks_executed)
    if counter == "count/stolen":
        return float(pool.steals)
    if counter == "queue/length":
        return float(pool.pending())
    if counter == "queue/length-low":
        return float(pool.pending_low())
    if counter == "time/busy":
        return sum(w.busy_time for w in pool.workers)
    if counter == "time/average":
        if pool.tasks_executed == 0:
            return 0.0
        busy = sum(w.busy_time for w in pool.workers)
        return busy / pool.tasks_executed
    if counter == "idle-rate":
        makespan = pool.makespan
        if makespan == 0.0:
            return 0.0
        busy = sum(w.busy_time for w in pool.workers)
        capacity = makespan * pool.n_workers
        return max(0.0, 1.0 - busy / capacity)
    raise RuntimeStateError(f"unknown threads counter {counter!r}")


def _worker_counter(pool: "ThreadPool", worker_id: int, counter: str) -> float:
    if not 0 <= worker_id < pool.n_workers:
        raise RuntimeStateError(
            f"worker {worker_id} out of range [0, {pool.n_workers})"
        )
    worker = pool.workers[worker_id]
    if counter == "count/cumulative":
        return float(worker.tasks_run)
    if counter == "time/busy":
        return worker.busy_time
    if counter == "idle-rate":
        makespan = pool.makespan
        if makespan == 0.0:
            return 0.0
        return max(0.0, 1.0 - worker.busy_time / makespan)
    raise RuntimeStateError(
        f"threads counter {counter!r} has no per-worker instance"
    )


def _aggregate_threads(pools: list["ThreadPool"], counter: str) -> float:
    """Job-wide thread counters, weighted by each pool's actual load.

    ``time/average`` is total busy seconds over total tasks;
    ``idle-rate`` is one minus total busy seconds over total capacity
    (the job makespan times every worker in view).  Additive counters
    are summed.
    """
    if counter == "time/average":
        total_busy = sum(_pool_counter(p, "time/busy") for p in pools)
        total_tasks = sum(p.tasks_executed for p in pools)
        if total_tasks == 0:
            return 0.0
        return total_busy / total_tasks
    if counter == "idle-rate":
        span = max(p.makespan for p in pools)
        if span == 0.0:
            return 0.0
        total_busy = sum(_pool_counter(p, "time/busy") for p in pools)
        capacity = span * sum(p.n_workers for p in pools)
        return max(0.0, 1.0 - total_busy / capacity)
    return float(sum(_pool_counter(pool, counter) for pool in pools))


def query(runtime: "Runtime", path: str) -> float:
    """Evaluate one counter path against a runtime."""
    match = _PATH.match(path)
    if not match:
        raise RuntimeStateError(f"malformed counter path {path!r}")
    obj = match.group("object")
    instance = match.group("instance")
    counter = match.group("counter")

    if obj == "threads":
        pools = [loc.pool for loc in runtime.localities]
        if instance and instance != "total":
            worker_match = _WORKER.match(instance)
            if worker_match:
                pool = runtime.locality(int(worker_match.group("id"))).pool
                return _worker_counter(
                    pool, int(worker_match.group("worker")), counter
                )
            loc_match = _LOCALITY.match(instance)
            if not loc_match:
                raise RuntimeStateError(f"malformed instance {instance!r}")
            loc_id = int(loc_match.group("id"))
            pools = [runtime.locality(loc_id).pool]
        if len(pools) == 1:
            return float(_pool_counter(pools[0], counter))
        return _aggregate_threads(pools, counter)

    if obj == "parcels":
        if instance not in (None, "total"):
            raise RuntimeStateError("parcel counters are job-wide; use {total}")
        port = runtime.parcelport
        if counter == "count/sent":
            return float(port.parcels_sent)
        if counter == "data/sent":
            return float(port.bytes_sent)
        if counter == "count/delivered":
            return float(port.parcels_delivered)
        if counter == "time/average-latency":
            if port.parcels_delivered == 0:
                return 0.0
            return port.latency_total_s / port.parcels_delivered
        if counter == "count/retries-in-flight":
            return float(port.parcels_retried - port.parcels_retransmitted)
        if counter == "queue/dead-letter":
            return float(len(port.dead_letters))
        if counter in _PARCEL_FAULT_COUNTERS:
            return float(getattr(port, _PARCEL_FAULT_COUNTERS[counter]))
        raise RuntimeStateError(f"unknown parcels counter {counter!r}")

    if obj in ("overload", "breaker", "phi"):
        if instance not in (None, "total"):
            raise RuntimeStateError(f"{obj} counters are job-wide; use {{total}}")
        controller = getattr(runtime, "_overload", None)
        if obj == "overload":
            if counter == "queue/stalled":
                return 0.0 if controller is None else float(controller.stalled_count())
            if counter in _OVERLOAD_COUNTERS:
                if controller is None:
                    return 0.0
                return float(getattr(controller, _OVERLOAD_COUNTERS[counter]))
            raise RuntimeStateError(f"unknown overload counter {counter!r}")
        if obj == "breaker":
            if counter in _BREAKER_COUNTERS:
                if controller is None:
                    return 0.0
                return float(getattr(controller, _BREAKER_COUNTERS[counter]))
            raise RuntimeStateError(f"unknown breaker counter {counter!r}")
        if counter == "suspicion":
            if controller is None:
                return 0.0
            return controller.phi.suspicion(runtime.makespan)
        raise RuntimeStateError(f"unknown phi counter {counter!r}")

    if obj == "localities":
        if instance not in (None, "total"):
            raise RuntimeStateError("locality counters are job-wide; use {total}")
        if counter == "count/failed":
            return float(runtime.localities_failed)
        if counter == "count/decommissioned":
            return float(len(runtime.decommissioned))
        raise RuntimeStateError(f"unknown localities counter {counter!r}")

    if obj == "checkpoints":
        if instance not in (None, "total"):
            raise RuntimeStateError("checkpoint counters are job-wide; use {total}")
        if counter in _CHECKPOINT_COUNTERS:
            return float(getattr(runtime, _CHECKPOINT_COUNTERS[counter]))
        raise RuntimeStateError(f"unknown checkpoints counter {counter!r}")

    if obj == "backend":
        if instance not in (None, "total"):
            raise RuntimeStateError("backend counters are job-wide; use {total}")
        if counter in _BACKEND_COUNTERS:
            stats = runtime.backend.counters()
            return float(stats.get(_BACKEND_COUNTERS[counter], 0.0))
        raise RuntimeStateError(f"unknown backend counter {counter!r}")

    if obj == "runtime":
        if counter == "uptime":
            return runtime.makespan
        raise RuntimeStateError(f"unknown runtime counter {counter!r}")

    raise RuntimeStateError(f"unknown counter object {obj!r}")


def discover(runtime: "Runtime") -> list[str]:
    """All concrete counter paths available on this runtime."""
    paths = []
    thread_counters = (
        "count/cumulative",
        "count/stolen",
        "queue/length",
        "queue/length-low",
        "time/average",
        "time/busy",
        "idle-rate",
    )
    for counter in thread_counters:
        paths.append(f"/threads{{total}}/{counter}")
        for loc in runtime.localities:
            paths.append(f"/threads{{locality#{loc.locality_id}/total}}/{counter}")
    for counter in _WORKER_COUNTERS:
        for loc in runtime.localities:
            for worker in loc.pool.workers:
                paths.append(
                    f"/threads{{locality#{loc.locality_id}"
                    f"/worker#{worker.worker_id}}}/{counter}"
                )
    paths.append("/parcels{total}/count/sent")
    paths.append("/parcels{total}/data/sent")
    paths.append("/parcels{total}/count/delivered")
    paths.append("/parcels{total}/time/average-latency")
    paths.append("/parcels{total}/count/retries-in-flight")
    paths.append("/parcels{total}/queue/dead-letter")
    for counter in _PARCEL_FAULT_COUNTERS:
        paths.append(f"/parcels{{total}}/{counter}")
    if getattr(runtime, "_overload", None) is not None:
        for counter in _OVERLOAD_COUNTERS:
            paths.append(f"/overload{{total}}/{counter}")
        paths.append("/overload{total}/queue/stalled")
        for counter in _BREAKER_COUNTERS:
            paths.append(f"/breaker{{total}}/{counter}")
        paths.append("/phi{total}/suspicion")
    paths.append("/localities{total}/count/failed")
    paths.append("/localities{total}/count/decommissioned")
    for counter in _CHECKPOINT_COUNTERS:
        paths.append(f"/checkpoints{{total}}/{counter}")
    if runtime.distributed:
        for counter in _BACKEND_COUNTERS:
            paths.append(f"/backend{{total}}/{counter}")
    paths.append("/runtime/uptime")
    return paths
