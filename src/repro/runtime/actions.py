"""Actions: named, remotely-invokable functions, plus the async API.

``@action`` registers a module-level function under a stable name so
parcels can reference it textually (the HPX action registry).  The
local-async trio mirrors HPX:

* :func:`async_` -- run on the current pool, get a future;
* :func:`apply`  -- fire-and-forget;
* :func:`sync`   -- run asynchronously but wait for the result.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import ReplayExhaustedError, ReplicateError, RuntimeStateError
from . import context as ctx
from .futures import Future, Promise, unwrap, when_all

__all__ = [
    "action",
    "get_action",
    "async_",
    "apply",
    "sync",
    "async_after",
    "sleep_for",
    "async_replay",
    "async_replicate",
]

_REGISTRY: dict[str, Callable[..., Any]] = {}


def action(fn: Callable[..., Any] | None = None, *, name: str | None = None):
    """Register ``fn`` as a named action (decorator).

    ``@action`` uses the function's qualified name; ``@action(name=...)``
    overrides it.  Re-registering a different function under the same
    name is an error (actions must be stable across localities).
    """

    def register(func: Callable[..., Any]) -> Callable[..., Any]:
        key = name or f"{func.__module__}.{func.__qualname__}"
        existing = _REGISTRY.get(key)
        if existing is not None and existing is not func:
            raise RuntimeStateError(f"action name {key!r} already registered")
        _REGISTRY[key] = func
        func.action_name = key  # type: ignore[attr-defined]
        return func

    if fn is not None:
        return register(fn)
    return register


def get_action(name: str) -> Callable[..., Any]:
    """Resolve a registered action by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise RuntimeStateError(f"unknown action {name!r}") from None


def _current_pool():
    frame = ctx.current()
    if frame.pool is None:
        raise RuntimeStateError("no thread pool in the current context")
    return frame.pool


def async_(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
    """Spawn ``fn(*args, **kwargs)`` as an HPX-thread; returns its future."""
    return _current_pool().submit(fn, *args, kwargs=kwargs or None)


def apply(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> None:
    """Fire-and-forget spawn (HPX ``hpx::post``/``apply``)."""
    _current_pool().post(fn, *args, kwargs=kwargs or None)


def sync(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Spawn and wait: ``async_(fn, ...).get()``."""
    return async_(fn, *args, **kwargs).get()


def async_after(delay: float, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
    """Spawn ``fn`` no earlier than ``delay`` virtual seconds from now.

    The cooperative analogue of HPX's timed execution
    (``hpx::async(hpx::launch::async, deadline, f)``): the task's ready
    time is pushed into the virtual future, so workers fill the gap with
    other work.
    """
    if delay < 0:
        raise RuntimeStateError(f"delay must be non-negative, got {delay!r}")
    pool = _current_pool()
    return pool.submit(
        fn,
        *args,
        kwargs=kwargs or None,
        ready_time=pool.now + delay,
        description=f"timed:{getattr(fn, '__name__', 'fn')}",
    )


def async_replay(
    n: int,
    fn: Callable[..., Any],
    *args: Any,
    validate: Callable[[Any], bool] | None = None,
    **kwargs: Any,
) -> Future:
    """Run ``fn`` asynchronously, re-executing on failure up to ``n`` times.

    The HPX resiliency API (``hpx::resiliency::experimental::async_replay``):
    attempt ``k+1`` launches only after attempt ``k`` failed, so at most
    one replica is in flight.  A failure is a raised exception or -- when
    ``validate`` is given -- a result it rejects.  After ``n`` failed
    attempts the last exception is re-raised through the returned future
    (:class:`~repro.errors.ReplayExhaustedError` when the failure was a
    rejected result).

    If an attempt returns a :class:`Future` (e.g. the body performs a
    remote ``async_at``/``invoke_async``), it is unwrapped, so remote
    failures count as attempt failures and are replayed too.
    """
    if n < 1:
        raise RuntimeStateError(f"async_replay needs n >= 1, got {n!r}")
    promise = Promise()

    def attempt(k: int) -> None:
        resolved = unwrap(async_(fn, *args, **kwargs))

        def on_done(future: Future) -> None:
            try:
                value = future.get_nowait()
            except BaseException as exc:  # noqa: BLE001 - replayed/forwarded
                if k + 1 < n:
                    attempt(k + 1)
                else:
                    promise.set_exception(exc)
                return
            if validate is not None and not validate(value):
                if k + 1 < n:
                    attempt(k + 1)
                else:
                    promise.set_exception(
                        ReplayExhaustedError(
                            f"async_replay: result failed validation on all "
                            f"{n} attempt(s)"
                        )
                    )
                return
            promise.set_value(value)

        resolved._on_ready(on_done)

    attempt(0)
    return promise.get_future()


def async_replicate(
    n: int,
    fn: Callable[..., Any],
    *args: Any,
    validate: Callable[[Any], bool] | None = None,
    **kwargs: Any,
) -> Future:
    """Run ``n`` concurrent replicas of ``fn``; first valid result wins.

    The HPX resiliency API (``async_replicate``): all replicas launch
    immediately, the returned future waits for all of them and yields the
    lowest-indexed result that did not raise and -- when ``validate`` is
    given -- passes validation.  If every replica raised, the last
    exception is re-raised; if some succeeded but none validated,
    :class:`~repro.errors.ReplicateError` is raised.  Future-returning
    bodies are unwrapped as in :func:`async_replay`.
    """
    if n < 1:
        raise RuntimeStateError(f"async_replicate needs n >= 1, got {n!r}")
    promise = Promise()
    replicas = [unwrap(async_(fn, *args, **kwargs)) for _ in range(n)]

    def pick(all_ready: Future) -> None:
        last_exc: BaseException | None = None
        succeeded = 0
        for replica in all_ready.get_nowait():
            try:
                value = replica.get_nowait()
            except BaseException as exc:  # noqa: BLE001 - tallied/forwarded
                last_exc = exc
                continue
            succeeded += 1
            if validate is None or validate(value):
                promise.set_value(value)
                return
        if succeeded == 0 and last_exc is not None:
            promise.set_exception(last_exc)
        else:
            promise.set_exception(
                ReplicateError(
                    f"async_replicate: none of {succeeded} successful "
                    f"replica(s) (of {n}) passed validation"
                )
            )

    when_all(replicas)._on_ready(pick)
    return promise.get_future()


def sleep_for(seconds: float) -> None:
    """Advance the calling task's virtual clock (``this_thread::sleep_for``).

    In virtual time, sleeping and computing are both occupancy of the
    worker; the distinction the paper's timing cares about is *when the
    task finishes*, which both advance identically.
    """
    from . import context as ctx

    if seconds < 0:
        raise RuntimeStateError(f"sleep must be non-negative, got {seconds!r}")
    ctx.add_cost(seconds)
