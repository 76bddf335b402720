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

from ..errors import RuntimeStateError
from . import context as ctx
from .futures import Future

__all__ = [
    "action",
    "get_action",
    "async_",
    "apply",
    "sync",
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
