"""Unit tests for futures and promises."""

import pytest

from repro.errors import (
    BrokenPromiseError,
    FutureAlreadySetError,
    FutureNotReadyError,
)
from repro.runtime import Promise, make_ready_future, when_all


def test_promise_fulfils_future():
    promise = Promise()
    future = promise.get_future()
    assert not future.is_ready()
    promise.set_value(42)
    assert future.is_ready()
    assert future.get() == 42


def test_get_is_idempotent_shared_semantics():
    future = make_ready_future("x")
    assert future.get() == "x"
    assert future.get() == "x"


def test_multiple_futures_share_state():
    promise = Promise()
    f1, f2 = promise.get_future(), promise.get_future()
    promise.set_value(7)
    assert f1.get() == f2.get() == 7


def test_double_set_rejected():
    promise = Promise()
    promise.set_value(1)
    with pytest.raises(FutureAlreadySetError):
        promise.set_value(2)
    with pytest.raises(FutureAlreadySetError):
        promise.set_exception(ValueError())


def test_exception_propagates():
    promise = Promise()
    promise.set_exception(ValueError("boom"))
    future = promise.get_future()
    with pytest.raises(ValueError, match="boom"):
        future.get()


def test_set_exception_requires_exception():
    with pytest.raises(TypeError):
        Promise().set_exception("not an exception")


def test_get_nowait_on_pending_raises():
    with pytest.raises(FutureNotReadyError):
        Promise().get_future().get_nowait()


def test_get_outside_runtime_on_pending_raises():
    with pytest.raises(FutureNotReadyError):
        Promise().get_future().get()


def test_broken_promise():
    promise = Promise()
    future = promise.get_future()
    promise.break_promise()
    with pytest.raises(BrokenPromiseError):
        future.get()


def test_break_after_set_is_noop():
    promise = Promise()
    promise.set_value(1)
    promise.break_promise()
    assert promise.get_future().get() == 1


def test_then_runs_inline_outside_runtime():
    future = make_ready_future(10)
    doubled = future.then(lambda f: f.get() * 2)
    assert doubled.get() == 20


def test_then_on_pending_future():
    promise = Promise()
    chained = promise.get_future().then(lambda f: f.get() + 1)
    assert not chained.is_ready()
    promise.set_value(5)
    assert chained.get() == 6


def test_then_propagates_exception():
    future = make_ready_future(0)
    failed = future.then(lambda f: 1 // f.get())
    with pytest.raises(ZeroDivisionError):
        failed.get()


def test_when_all_empty():
    assert when_all([]).get() == []


def test_when_all_ready_order_preserved():
    p1, p2 = Promise(), Promise()
    combined = when_all([p1.get_future(), p2.get_future()])
    p2.set_value("b")
    assert not combined.is_ready()
    p1.set_value("a")
    values = [f.get() for f in combined.get()]
    assert values == ["a", "b"]


def test_ready_time_defaults_to_zero_outside_runtime():
    assert make_ready_future(1).ready_time == 0.0


def test_blocking_get_inside_runtime(rt):
    from repro.runtime import async_

    def main():
        return async_(lambda: 21).get() * 2

    assert rt.run(main) == 42
