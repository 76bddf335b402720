"""Unit tests for the action registry, async/apply/sync and timed
execution (async_after, sleep_for)."""

import pytest

from repro.errors import RuntimeStateError
from repro.runtime import apply, async_, async_after, sleep_for, sync
from repro.runtime import context as ctx
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


# Timed execution ----------------------------------------------------------------

def test_async_after_delays_in_virtual_time(rt):
    def main():
        future = async_after(10.0, lambda: "late")
        return future.get()

    assert rt.run(main) == "late"
    assert rt.makespan >= 10.0


def test_async_after_overlaps_with_other_work(rt):
    """Workers run other tasks while the timed task waits."""
    from repro.runtime import when_all

    def main():
        late = async_after(5.0, lambda: ctx.add_cost(1.0))
        busy = [async_(lambda: ctx.add_cost(1.0)) for _ in range(3)]
        when_all([late] + busy).get()

    rt.run(main)
    # Busy tasks fill t in [0,1]; the timed task runs [5,6]: makespan 6,
    # not 5 + 1 + 3 sequentialised.
    assert rt.makespan == pytest.approx(6.0)


def test_async_after_negative_delay_rejected(rt):
    def main():
        async_after(-1.0, lambda: None)

    with pytest.raises(RuntimeStateError):
        rt.run(main)


def test_sleep_for_advances_task_clock(rt):
    def main():
        sleep_for(2.5)

    rt.run(main)
    assert rt.makespan == pytest.approx(2.5)


def test_sleep_for_negative_rejected(rt):
    with pytest.raises(RuntimeStateError):
        rt.run(lambda: sleep_for(-0.1))
