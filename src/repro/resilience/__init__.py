"""Fault injection and resilience: the runtime as a robustness testbed.

The paper's Kunpeng 916 story is about a *degraded* network; real AMT
deployments (e.g. HPX on Raspberry Pi clusters) add outright faults on
top.  This package turns the perfectly reliable simulated substrate into
a lossy one -- deterministically -- and provides the HPX-style recovery
APIs:

* :class:`FaultInjector` -- seeded, virtual-time-aware source of parcel
  faults (drop / corrupt / duplicate / delay-spike) and scheduled
  locality outages, consulted by the parcelport and the runtime;
* :class:`RetryPolicy` -- reliable parcel delivery on the lossy port:
  ack-timeout retransmission with capped exponential backoff and a
  dead-letter queue (see
  :class:`~repro.runtime.parcel.parcelport.Parcelport`);
* :func:`save_checkpoint` / :func:`restore_checkpoint` /
  :class:`CheckpointStore` -- HPX-style checkpoint/restart
  (``hpx::util::checkpoint``): versioned, checksummed snapshots with a
  coordinated epoch protocol, corruption fallback, and cost-model
  accounting (see :mod:`repro.resilience.checkpoint`);
* :class:`OverloadController` (with :class:`OverloadPolicy`,
  :class:`CircuitBreaker`, :class:`PhiAccrualDetector`) -- overload
  protection: admission control with priority-aware shedding,
  credit-based flow control, per-destination circuit breakers, and a
  phi-accrual failure detector (see :mod:`repro.resilience.overload`).

Everything is clocked on the DES virtual clock, so a faulty run is as
deterministic and reproducible as a clean one: same seed, same faults,
same retries, same makespan.
"""

from ..runtime.parcel.parcelport import RetryPolicy
from .checkpoint import (
    Checkpoint,
    CheckpointStore,
    restore_checkpoint,
    save_checkpoint,
)
from .faults import FaultInjector, LocalityFailure, ParcelFate
from .overload import (
    CircuitBreaker,
    OverloadController,
    OverloadPolicy,
    PhiAccrualDetector,
)

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "CircuitBreaker",
    "FaultInjector",
    "LocalityFailure",
    "OverloadController",
    "OverloadPolicy",
    "ParcelFate",
    "PhiAccrualDetector",
    "RetryPolicy",
    "restore_checkpoint",
    "save_checkpoint",
]
