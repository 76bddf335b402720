"""Argument serialization for parcels.

Every parcel's arguments really are encoded (pickle), also between
localities that share this process, and decoded where a modelled
network or a process boundary lies between sender and handler.  This
catches the classic distributed-programming bug (shipping something
unshippable: an open file, a lambda closing over local state) in every
test run that crosses localities, and gives the network model honest
byte counts.  As in HPX, a component action on the caller's own
locality is no parcel and is not encoded (``Runtime._invoke``).
"""

from __future__ import annotations

import pickle
from typing import Any

from ...errors import SerializationError

__all__ = ["serialize", "deserialize", "serialized_size"]

#: Protocol 4 is ample and stable across the Pythons we support.
_PROTOCOL = 4


def serialize(payload: Any) -> bytes:
    """Encode ``payload`` for the wire; raises :class:`SerializationError`
    with the offending object named when encoding is impossible."""
    try:
        return pickle.dumps(payload, protocol=_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise SerializationError(
            f"cannot serialize parcel payload ({type(payload).__name__}): {exc}"
        ) from exc


def deserialize(data: bytes) -> Any:
    """Decode wire bytes back into the payload."""
    try:
        return pickle.loads(data)
    except (pickle.UnpicklingError, EOFError, ValueError) as exc:
        raise SerializationError(f"cannot deserialize parcel: {exc}") from exc


def serialized_size(payload: Any) -> int:
    """Wire size in bytes (drives the network transfer-time model).

    Already-encoded payloads are measured directly -- callers that hold
    the wire bytes (every parcelport path does) must not pay a second
    pickle pass just to learn a length.
    """
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    return len(serialize(payload))
