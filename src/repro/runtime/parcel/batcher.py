"""Parcel coalescing: pack small same-destination parcels into one wire message.

On cheap cores the per-message cost (syscall, header, NIC doorbell)
dominates small-parcel traffic; HPX's parcelport coalescing amortizes it
by letting messages ride together.  The :class:`ParcelBatcher` is that
layer for this runtime: :meth:`Parcelport.send
<repro.runtime.parcel.parcelport.Parcelport.send>` appends each
cross-locality parcel to a per-destination batch, and the batch goes out
as *one wire message* when it fills (``parcel.batch_max_parcels``),
grows past the byte budget (``parcel.batch_max_bytes``), or its
virtual-clock linger expires (``parcel.batch_linger_s``; 0 means "flush
when the sending task yields", which is the next progress-engine step).

Per-parcel semantics are preserved exactly: every inner parcel still
goes through :meth:`Parcelport._transmit
<repro.runtime.parcel.parcelport.Parcelport._transmit>` individually, so
acks, retries, credits, receiver-side dedupe, fault injection, and the
``parcels``/``bytes`` statistics are all applied per inner parcel and
PR 6's ``completed + shed + dead_lettered == submitted`` conservation
law is untouched.  What coalescing changes is the *message-level*
accounting, reported through new ``/parcels{total}/batch/*``
perfcounters (wire messages, inner parcels, amortized header bytes).

Determinism contract (the default ``batch_linger_s = 0``):

* batches are per-destination FIFO, so each destination pool receives
  its handler tasks in exactly the unbatched relative order;
* with zero linger every pending batch is flushed before the progress
  engine executes another task, so a batch only ever holds the sends of
  the task currently running;
* the runtime flushes a destination's batch before submitting any
  direct task to that pool from the same task (reply deliveries,
  retransmissions), closing the one remaining reordering window;
* the fault-injection sequence index is reserved at enqueue time, so a
  parcel draws the same fates batched or not.

Under those rules batching on/off is bit-identical in solutions,
virtual makespans, and per-parcel counters (the determinism tests and
the hypothesis property prove it under all three schedulers, with and
without faults).  A nonzero linger deliberately trades delivery
latency -- and with it strict timing identity -- for larger batches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .. import instrument
from .parcel import Parcel

if TYPE_CHECKING:  # pragma: no cover
    from .parcelport import Parcelport

__all__ = ["ParcelBatcher"]

_INF = float("inf")


class _Batch:
    """One open per-destination wire message being assembled."""

    __slots__ = ("parcels", "bytes", "deadline")

    def __init__(self, deadline: float) -> None:
        self.parcels: list[Parcel] = []
        self.bytes = 0
        #: Virtual time at which the linger timer flushes this batch;
        #: ``-inf`` when linger is zero (due at the very next yield).
        self.deadline = deadline


class ParcelBatcher:
    """Per-destination parcel coalescing with flush-on-full/bytes/linger."""

    def __init__(
        self,
        port: "Parcelport",
        resolve: Callable[[Parcel], int],
        max_parcels: int = 16,
        max_bytes: int = 16384,
        linger_s: float = 0.0,
    ) -> None:
        self._port = port
        self._resolve = resolve
        self.max_parcels = max_parcels
        self.max_bytes = max_bytes
        self.linger_s = linger_s
        self._batches: dict[int, _Batch] = {}
        #: Parcels currently held in open batches (gauge).
        self.pending = 0
        # Message-level statistics (perfcounter sources).
        self.messages_flushed = 0
        self.parcels_batched = 0
        #: Modelled header bytes one wire message amortizes over its
        #: inner parcels: 64 * (k - 1) per flush of k.
        self.header_bytes_saved = 0
        self.flushes_full = 0
        self.flushes_bytes = 0
        self.flushes_linger = 0
        self.flushes_forced = 0

    def enqueue(self, parcel: Parcel) -> float:
        """Admit a parcel into its destination's open batch.

        Local (same-locality) parcels bypass coalescing entirely: there
        is no wire message to amortize, and holding them would reorder
        them against the sending task's direct pool submissions.
        """
        destination = self._resolve(parcel)
        if destination == parcel.source_locality:
            return self._port._transmit(parcel)
        injector = self._port.fault_injector
        if injector is not None:
            # Fates are seeded by a first-come sequence index; reserving
            # it now (send order) instead of at the coalesced transmit
            # keeps every fate identical to the unbatched run.
            injector.reserve(parcel)
            # A parcel the network will lose never occupies batch space:
            # transmitting it now lets the loss machinery (retry
            # scheduling, dead-lettering) run at the send point, exactly
            # where the unbatched port would discover it.  The fate is a
            # pure function of (parcel, attempt), so _transmit re-draws
            # the same verdict.
            if injector.parcel_fate(parcel, parcel.attempts + 1).lost:
                return self._port._transmit(parcel)
        batch = self._batches.get(destination)
        if batch is None:
            deadline = (
                parcel.send_time + self.linger_s if self.linger_s > 0.0 else -_INF
            )
            batch = self._batches[destination] = _Batch(deadline)
        batch.parcels.append(parcel)
        batch.bytes += parcel.size_bytes
        self.pending += 1
        if len(batch.parcels) >= self.max_parcels:
            self._flush(destination, "full")
        elif batch.bytes >= self.max_bytes:
            self._flush(destination, "bytes")
        return parcel.send_time

    def flush_due(self, now_hint: float) -> bool:
        """Flush every batch whose linger deadline is at or before
        ``now_hint`` (the progress engine's next virtual start; ``inf``
        drains everything).  Returns True when anything was flushed --
        the engine then re-evaluates before stepping a task."""
        if not self._batches:
            return False
        due = [
            destination
            for destination, batch in self._batches.items()
            if batch.deadline <= now_hint
        ]
        for destination in due:
            self._flush(destination, "linger")
        return bool(due)

    def flush_all(self) -> None:
        """Drain every open batch unconditionally (progress-loop exit:
        a parcel the application already sent must reach the wire even
        though no further task will be stepped)."""
        for destination in list(self._batches):
            self._flush(destination, "forced")

    def flush_destination(self, destination: int) -> None:
        """Flush one destination's open batch (ordering hook: called
        before the runtime submits a non-parcel task to that pool)."""
        if destination in self._batches:
            self._flush(destination, "forced")

    def flush_for(self, parcel: Parcel) -> None:
        """Flush the batch ahead of an out-of-band transmit of ``parcel``
        (retransmissions bypass coalescing but must not overtake queued
        first sends to the same destination)."""
        self.flush_destination(self._resolve(parcel))

    def _flush(self, destination: int, reason: str) -> None:
        batch = self._batches.pop(destination)
        parcels = batch.parcels
        count = len(parcels)
        self.pending -= count
        self.messages_flushed += 1
        self.parcels_batched += count
        self.header_bytes_saved += 64 * (count - 1)
        if reason == "full":
            self.flushes_full += 1
        elif reason == "bytes":
            self.flushes_bytes += 1
        elif reason == "linger":
            self.flushes_linger += 1
        else:
            self.flushes_forced += 1
        if self.linger_s > 0.0 and reason == "linger":
            # The message legally departs at its linger deadline: parcels
            # held past their send time leave when the timer fires.
            for parcel in parcels:
                if parcel.send_time < batch.deadline:
                    parcel.send_time = batch.deadline
        if instrument.enabled and (probe := instrument.probe) is not None:
            probe.event(
                "parcel_batch_flush",
                max(parcel.send_time for parcel in parcels),
                args={
                    "destination": destination,
                    "parcels": count,
                    "bytes": batch.bytes,
                    "reason": reason,
                },
            )
        transmit = self._port._transmit
        for parcel in parcels:
            transmit(parcel)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParcelBatcher(pending={self.pending}, "
            f"messages={self.messages_flushed}, batched={self.parcels_batched})"
        )
