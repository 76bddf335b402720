"""Channel LCO (HPX ``hpx::lcos::channel``): an asynchronous FIFO pipe.

Channels are how the paper's distributed 1D stencil exchanges halos: the
producer ``set``s boundary values tagged by time step, the consumer
``get``s a future for them -- in either order.  The unmatched side is
buffered, so communication and computation overlap naturally.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from ...errors import ChannelClosedError, ChannelTimeoutError, RuntimeStateError
from .. import instrument
from ..futures import Future, Promise, _arm_timer, demand

__all__ = ["Channel"]


class Channel:
    """Unbounded FIFO of values with future-returning ``get``.

    ``set`` before ``get`` buffers the value; ``get`` before ``set``
    buffers the promise.  ``close`` fails all pending and future ``get``s
    with :class:`ChannelClosedError`.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._values: deque[Any] = deque()
        self._waiters: deque[Promise] = deque()
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def set(self, value: Any) -> None:
        """Send one value into the channel."""
        if self._closed:
            raise ChannelClosedError(f"channel {self.name!r} is closed")
        if self._waiters:
            # Direct hand-off: fulfilment in the sender's context is the
            # happens-before edge.
            self._waiters.popleft().set_value(value)
        else:
            probe = instrument.probe
            if probe is not None:
                # Buffered value: it carries the sender's clock until a
                # matching get withdraws it.
                probe.token_put(self)
            self._values.append(value)

    def get(self, timeout: float | None = None) -> Future:
        """A future for the next value (FIFO order among getters).

        With ``timeout`` (virtual seconds from the caller's current
        virtual time) the future fails with
        :class:`~repro.errors.ChannelTimeoutError` if no value matched it
        by the deadline; a timeout needs an active pool to host the
        virtual timer.
        """
        promise = Promise()
        if self._values:
            probe = instrument.probe
            if probe is not None:
                probe.token_get(self)
            promise.set_value(self._values.popleft())
        elif self._closed:
            promise.set_exception(
                ChannelClosedError(f"channel {self.name!r} is closed and drained")
            )
        else:
            # Arm (or refuse) the timer first: a refused timeout must
            # leave no waiter behind to swallow the next value.
            if timeout is not None:
                if timeout < 0:
                    raise RuntimeStateError(f"timeout must be non-negative, got {timeout!r}")

                def fire() -> None:
                    if promise.is_ready():
                        return
                    self._waiters.remove(promise)
                    promise.set_exception(
                        ChannelTimeoutError(
                            f"channel {self.name!r}: no value within "
                            f"{timeout!r} virtual seconds"
                        )
                    )

                _arm_timer(fire, timeout, f"channel-timeout:{self.name}")
            # An unmatched get is a demanded future: if the job quiesces
            # before a value (or close) arrives, the read was lost.
            demand(promise._state, f"channel.get({self.name!r})")
            self._waiters.append(promise)
        return promise.get_future()

    def get_sync(self, timeout: float | None = None) -> Any:
        """Cooperatively blocking receive."""
        return self.get(timeout=timeout).get()

    def close(self) -> int:
        """Close the channel; returns the number of waiters that failed.

        Matching HPX semantics: values already buffered remain
        retrievable after close; only *unmatched* ``get``s (pending now
        or issued later, once the buffer is drained) fail with
        :class:`ChannelClosedError`.
        """
        self._closed = True
        failed = len(self._waiters)
        while self._waiters:
            self._waiters.popleft().set_exception(
                ChannelClosedError(f"channel {self.name!r} closed while waiting")
            )
        return failed

    # Checkpoint protocol ----------------------------------------------------
    def checkpoint_state(self) -> dict[str, Any]:
        """Snapshot the buffered values and closed flag.

        Pending ``get``s (waiting promises) are deliberately not
        captured: coordinated checkpoints are taken at quiescence, and a
        restored channel starts with no waiters.
        """
        return {
            "name": self.name,
            "values": list(self._values),
            "closed": self._closed,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Rebuild from a :meth:`checkpoint_state` snapshot, in place."""
        if self._waiters:
            raise RuntimeStateError(
                f"cannot restore into channel {self.name!r} with "
                f"{len(self._waiters)} pending get(s)"
            )
        self.name = str(state["name"])
        self._values = deque(state["values"])
        self._closed = bool(state["closed"])

    def __len__(self) -> int:
        """Number of buffered (sent, unreceived) values."""
        return len(self._values)

    def __repr__(self) -> str:  # pragma: no cover
        state = "closed" if self._closed else "open"
        return (
            f"Channel({self.name!r}, {state}, buffered={len(self._values)}, "
            f"waiters={len(self._waiters)})"
        )
