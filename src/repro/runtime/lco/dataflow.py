"""``dataflow`` -- run a function when its future arguments are ready.

``dataflow(f, a, b, c)`` returns a future for ``f(a', b', c')`` where
future arguments are replaced by their values and plain arguments pass
through.  Nothing blocks: the body is queued as a new HPX-thread the
moment the last dependency fires.  This is the paper's "data directed
computing ... message-driven computation" in one primitive, and the
natural way to write the futurized stencil time loop.
"""

from __future__ import annotations

from typing import Any, Callable

from .. import instrument
from ..context import _stack as _context_stack
from ..futures import Future, Promise, demand

__all__ = ["dataflow"]


def dataflow(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
    """Schedule ``fn`` for when every future among its arguments is ready.

    The returned future carries ``fn``'s result (or its exception).  The
    body runs as a new HPX-thread on the current pool; outside a runtime
    it runs inline once dependencies are ready (which, outside a runtime,
    means immediately or never -- pending futures raise on ``get``).
    """
    deps: list[Future] = [a for a in args if isinstance(a, Future)]
    deps += [v for v in kwargs.values() if isinstance(v, Future)]
    promise = Promise()
    name = getattr(fn, "__name__", "fn")
    demand(promise._state, f"dataflow({name})")

    def body() -> None:
        try:
            unwrapped_args = [
                a.get_nowait() if isinstance(a, Future) else a for a in args
            ]
            unwrapped_kwargs = {
                k: (v.get_nowait() if isinstance(v, Future) else v)
                for k, v in kwargs.items()
            }
            promise.set_value(fn(*unwrapped_args, **unwrapped_kwargs))
        except BaseException as exc:  # noqa: BLE001 - forwarded
            promise.set_exception(exc)

    def launch() -> None:
        frame = _context_stack[-1] if _context_stack else None
        if frame is not None and frame.pool is not None:
            # Detached: ``body`` fulfils ``promise`` itself, so the
            # thread's own result would have no reader.
            frame.pool.post(body, description=("dataflow:%s", name))
        else:
            body()

    if instrument.enabled and (probe := instrument.probe) is not None:
        probe.state_linked(
            [d._state for d in deps], promise._state, f"dataflow({name})"
        )
    if not deps:
        launch()
    else:
        # A bare countdown: ``launch`` fires from inside the last
        # dependency's fulfilment callbacks, in that frame and at that
        # virtual time.
        counter = [len(deps)]

        def one_ready(dep: Future) -> None:
            # Each input's release clock joins the result, so a reader of
            # the dataflow future is ordered after *every* producer, not
            # just the one that happened to complete last.
            if instrument.enabled and (probe := instrument.probe) is not None:
                probe.state_read(dep._state)
                probe.state_contribute(promise._state)
            counter[0] -= 1
            if counter[0] == 0:
                launch()

        for dep in deps:
            dep._on_ready(one_ready)
    return promise.get_future()
