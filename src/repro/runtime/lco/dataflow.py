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
    if kwargs:
        deps += [v for v in kwargs.values() if isinstance(v, Future)]
    promise = Promise()
    name = getattr(fn, "__name__", "fn")
    demand(promise._state, f"dataflow({name})", deps)
    link = _Link(fn, args, kwargs, promise, name, len(deps))
    if not deps:
        link.launch()
    else:
        for dep in deps:
            dep._on_ready(link)
    return promise.get_future()


class _Link:
    """One ``dataflow`` link: the countdown every dependency calls back,
    the launch, and the task body -- one object instead of a closure
    each, since the stencil time loop builds one link per partition
    step."""

    __slots__ = ("fn", "args", "kwargs", "promise", "name", "pending")

    def __init__(
        self,
        fn: Callable[..., Any],
        args: tuple[Any, ...],
        kwargs: dict[str, Any],
        promise: Promise,
        name: str,
        pending: int,
    ) -> None:
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.promise = promise
        self.name = name
        self.pending = pending

    def __call__(self, dep: Future) -> None:
        """One dependency became ready.

        The last one launches the body from inside its fulfilment
        callbacks, in that frame and at that virtual time.  Each input's
        release clock joins the result, so a reader of the dataflow
        future is ordered after *every* producer, not just the one that
        happened to complete last.
        """
        if instrument.enabled and (probe := instrument.probe) is not None:
            probe.state_read(dep._state)
            probe.state_contribute(self.promise._state)
        self.pending -= 1
        if self.pending == 0:
            self.launch()

    def launch(self) -> None:
        frame = _context_stack[-1] if _context_stack else None
        if frame is not None and frame.pool is not None:
            # Detached: ``body`` fulfils the promise itself, so the
            # thread's own result would have no reader.
            frame.pool.post(self.body, description=("dataflow:%s", self.name))
        else:
            self.body()

    def body(self) -> None:
        promise = self.promise
        try:
            args = [a.get_nowait() if isinstance(a, Future) else a for a in self.args]
            kwargs = self.kwargs
            if kwargs:
                kwargs = {
                    k: (v.get_nowait() if isinstance(v, Future) else v)
                    for k, v in kwargs.items()
                }
            promise.set_value(self.fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - forwarded
            promise.set_exception(exc)
