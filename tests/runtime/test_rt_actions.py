"""Unit tests for the action registry and async/apply/sync."""

import pytest

from repro.errors import RuntimeStateError
from repro.runtime import apply, async_, sync
from repro.runtime.actions import action, get_action


def test_action_registers_by_qualname():
    @action
    def my_fn():
        return 1

    assert get_action(my_fn.action_name) is my_fn


def test_action_with_explicit_name():
    @action(name="custom.name")
    def other_fn():
        return 2

    assert get_action("custom.name") is other_fn


def test_conflicting_registration_rejected():
    @action(name="unique.slot")
    def f1():
        pass

    with pytest.raises(RuntimeStateError):
        @action(name="unique.slot")
        def f2():
            pass


def test_reregistering_same_function_ok():
    @action(name="idempotent.slot")
    def f():
        pass

    assert action(name="idempotent.slot")(f) is f


def test_unknown_action():
    with pytest.raises(RuntimeStateError):
        get_action("no.such.action")


def test_async_outside_runtime_rejected():
    with pytest.raises(RuntimeStateError):
        async_(lambda: 1)


def test_async_returns_future(rt):
    def main():
        return async_(lambda a, b: a + b, 1, b=2).get()

    assert rt.run(main) == 3


def test_apply_fire_and_forget(rt):
    hits = []

    def main():
        apply(hits.append, "x")
        return "scheduled"

    assert rt.run(main) == "scheduled"
    rt.progress_all()
    assert hits == ["x"]


def test_sync_waits(rt):
    def main():
        return sync(lambda: 99)

    assert rt.run(main) == 99
