"""The parcel: ParalleX's active message."""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Optional

from ...errors import ParcelError
from ..agas.gid import Gid

if TYPE_CHECKING:  # pragma: no cover
    from ..agas.service import _Entry
    from ..futures import Promise

__all__ = ["Parcel"]

_ids = itertools.count(1)


class Parcel:
    """Work shipped to data.

    Exactly one of ``target_gid`` (component action: AGAS resolves the
    current home) or ``target_locality`` (plain action on a node) is set.
    ``payload`` holds the *serialized* ``(action, args, kwargs)`` tuple;
    the destination deserializes it -- see
    :mod:`repro.runtime.parcel.serialization`.

    A parcel is a hot-path object (one per plain action and per remote
    component action), so it is a plain ``__slots__`` class: every
    transport-layer annex the runtime
    or parcelport may attach (``target_entry``, ``reply_promise``,
    ``by_ref_body``, ``fire_and_forget``, ``unreachable_destination``)
    is a declared slot
    with a cheap default instead of a dynamic attribute, and the wire
    size is computed exactly once at construction -- the payload bytes
    are immutable for the parcel's lifetime, retransmissions included.
    """

    __slots__ = (
        "source_locality",
        "payload",
        "target_gid",
        "target_locality",
        "target_entry",
        "send_time",
        "parcel_id",
        "attempts",
        "size_bytes",
        "reply_promise",
        "by_ref_body",
        "fire_and_forget",
        "unreachable_destination",
        "priority",
        "deferrals",
        "holds_credit",
    )

    def __init__(
        self,
        source_locality: int,
        payload: bytes,
        target_gid: Optional[Gid] = None,
        target_locality: Optional[int] = None,
        send_time: float = 0.0,
        parcel_id: int | None = None,
        attempts: int = 0,
    ) -> None:
        if (target_gid is None) == (target_locality is None):
            raise ParcelError(
                "parcel needs exactly one of target_gid or target_locality"
            )
        if source_locality < 0:
            raise ParcelError("negative source locality")
        if not isinstance(payload, (bytes, bytearray)):
            raise ParcelError("payload must be serialized bytes")
        self.source_locality = source_locality
        self.payload = payload
        self.target_gid = target_gid
        self.target_locality = target_locality
        #: AGAS row ``target_gid`` resolved to at send, so routing and
        #: delivery need no further lookups.  Process-local: it never
        #: goes on the wire, and a parcel built from wire bytes (None
        #: here) resolves on arrival.
        self.target_entry: _Entry | None = None
        #: Virtual send time at the source.
        self.send_time = send_time
        self.parcel_id = next(_ids) if parcel_id is None else parcel_id
        #: Transmissions so far (maintained by the parcelport; retries of a
        #: lost parcel re-send the same object with a bumped count).
        self.attempts = attempts
        #: Wire size (payload plus a modelled 64-byte header), encoded
        #: once -- statistics and the transfer-time model reuse it on
        #: every (re)transmission instead of re-measuring the bytes.
        self.size_bytes = len(payload) + 64
        #: Reply promise for two-way invocations (None for one-way sends,
        #: whose result nobody can read).
        self.reply_promise: Promise | None = None
        #: Body carried by reference beside its encoding (loopback port
        #: only); None means the receiver must deserialize ``payload``.
        self.by_ref_body: Any = None
        #: One-way invocation (``invoke_apply``): no reply parcel.
        self.fire_and_forget = False
        #: Destination recorded by runtime-side loss reports, so repeated
        #: unreachability can escalate into ``suspected_dead``.
        self.unreachable_destination: Optional[int] = None
        #: Scheduling priority for the handler task (a
        #: :class:`~repro.runtime.threads.hpx_thread.ThreadPriority`, or
        #: None for NORMAL).  Overload admission treats LOW-priority
        #: parcels as sheddable background traffic.
        self.priority: Any = None
        #: Times the overload controller deferred admission of this
        #: (LOW-priority) parcel; at ``overload.defer_max`` it is shed.
        self.deferrals = 0
        #: True while the parcel holds a send credit toward its
        #: destination (charged once at admission, released exactly once
        #: on ack or dead-letter; retransmissions keep the credit).
        self.holds_credit = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        target = (
            f"gid={self.target_gid}"
            if self.target_gid is not None
            else f"locality={self.target_locality}"
        )
        return (
            f"Parcel(#{self.parcel_id} {target} {self.size_bytes}B "
            f"t={self.send_time:.3g} attempts={self.attempts})"
        )
