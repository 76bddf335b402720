"""The ParalleX execution-model runtime (HPX analogue).

ParalleX attacks the SLOW factors -- Starvation, Latencies, Overheads,
Waiting (contention) -- with lightweight threads, message-driven
computation, constraint-based synchronisation (LCOs) and a global address
space.  This package implements each subsystem of Fig 1 of the paper:

* **Threading** (:mod:`~repro.runtime.threads`): HPX-threads scheduled
  cooperatively on a pool of virtual cores; FIFO / static / work-stealing
  schedulers.
* **LCOs** (:mod:`~repro.runtime.lco` and
  :mod:`~repro.runtime.futures`): futures, promises, ``when_all``,
  channels and ``dataflow``.
* **AGAS** (:mod:`~repro.runtime.agas`): global IDs, resolution and
  object migration.
* **Parcel transport** (:mod:`~repro.runtime.parcel`): active messages
  between localities with serialization and a modelled network.
* **Parallel algorithms** (:mod:`~repro.runtime.algorithms`):
  ``for_each``/``for_each_block`` with ``seq``/``par`` execution
  policies, mirroring the HPX calls in Listings 1 and 2.

Execution is *functionally real* (Python callables run and produce real
values) while *time is virtual*: worker cores advance a simulated clock,
parcels arrive after modelled network delays, and task costs are
attributed via :func:`~repro.runtime.context.add_cost`.  This is the
substitution that lets a laptop reproduce cluster-scale scheduling
behaviour deterministically.
"""

from .futures import Future, Promise, make_ready_future, when_all
from .lco import Channel, dataflow
from .threads.pool import ThreadPool
from .actions import action, async_, apply, sync
from .locality import Locality
from .runtime import Runtime
from . import perfcounters
from .algorithms import seq, par, for_each

__all__ = [
    "Future",
    "Promise",
    "make_ready_future",
    "when_all",
    "Channel",
    "dataflow",
    "ThreadPool",
    "action",
    "async_",
    "apply",
    "sync",
    "perfcounters",
    "Locality",
    "Runtime",
    "seq",
    "par",
    "for_each",
]
