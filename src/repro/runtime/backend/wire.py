"""Wire protocol for cross-process parcel transport.

Messages between the driver (locality 0) and the workers are tuples
``(kind, ...)`` encoded with the parcel layer's own
:func:`~repro.runtime.parcel.serialization.serialize` -- the same
encode-once format parcels already use -- and framed by the
multiprocess backend's ``_Channel`` over a socket pair (an 8-byte
length, then the message).  A parcel payload inside a ``"parcel"``
message is the *already-encoded* bytes produced by ``Runtime._encode``;
it is never re-pickled, only wrapped.

Message kinds
-------------
``("parcel", entry)``
    One parcel, written when it is routed: ``entry = (source,
    destination, payload, target_gid, target_locality, token,
    fire_and_forget, priority)``.  ``token`` is ``(origin_locality,
    seq)`` for sends that expect a reply, ``None`` for fire-and-forget.
``("reply", origin, token, ok, data)``
    Result of a tokened parcel: ``data`` is the serialized value when
    ``ok``, the serialized exception otherwise.  Routed to ``origin``.
``("create", origin, gid, home, data)``
    AGAS mirror of a new registration; ``data`` is the serialized
    component (decoded only by the home process).  Mirroring is AGAS's
    one coherence mechanism: the driver relays every message in order,
    so a ``create`` reaches each process before any message naming its
    GID, and the driver mirrors registrations made before its workers
    existed as soon as it has started them.
``("sync", seq)`` / ``("sync-ack", seq, worker, busy)``
    Termination-detection round: the worker acks once it has run
    everything runnable, with ``busy`` True while it has outstanding
    reply tokens or sent traffic since its last ack (output it has not
    written yet is ahead of the ack on the same socket).
``("stop",)`` / ``("stopped", worker, stats)``
    Clean shutdown; the worker answers with its runtime statistics
    (perfcounter aggregation back to locality 0) and exits.
``("abort",)``
    Error-path shutdown: exit immediately, no draining.
``("error", worker, text)``
    A worker process died; ``text`` is its formatted traceback.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..parcel.serialization import deserialize, serialize

if TYPE_CHECKING:  # pragma: no cover
    from ..parcel.parcel import Parcel
    from .multiprocess import _Channel

__all__ = ["encode_message", "decode_message", "parcel_entry", "send_message"]


def encode_message(message: tuple) -> bytes:
    """Encode one protocol message as wire bytes."""
    return serialize(message)


def decode_message(data: bytes | bytearray) -> tuple:
    """Inverse of :func:`encode_message`."""
    return deserialize(data)


def send_message(channel: "_Channel", message: tuple) -> int:
    """Encode one message and hand it to ``channel``, which writes what
    the socket takes now and the rest later; returns the byte count."""
    data = encode_message(message)
    channel.send(data)
    return len(data)


def parcel_entry(
    parcel: "Parcel", destination: int, token: tuple[int, int] | None
) -> tuple[Any, ...]:
    """The wire entry for one cross-process parcel.

    ``by_ref_body`` deliberately does not travel: a zero-copy loopback
    send downgrades to the real serialized payload the moment it crosses
    a process boundary.
    """
    return (
        parcel.source_locality,
        destination,
        parcel.payload,
        parcel.target_gid,
        parcel.target_locality,
        token,
        parcel.fire_and_forget,
        parcel.priority,
    )
