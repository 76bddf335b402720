"""Virtual-time timeouts on futures, when_all and channels."""

import pytest

from repro.errors import (
    ChannelTimeoutError,
    FutureError,
    FutureTimeoutError,
    ReproError,
    RuntimeStateError,
    TimeoutError,
)
from repro.runtime import Channel, async_, async_after, when_all
from repro.runtime.futures import Promise, make_ready_future


def test_timeout_errors_sit_under_repro_error():
    assert issubclass(TimeoutError, ReproError)
    assert issubclass(FutureTimeoutError, TimeoutError)
    assert issubclass(ChannelTimeoutError, TimeoutError)


# Future.wait_for / get(timeout=) ----------------------------------------------

def test_negative_timeout_rejected():
    with pytest.raises(FutureError):
        make_ready_future(1).wait_for(-1.0)


def test_ready_future_passes_any_timeout():
    make_ready_future(1).wait_for(0.0)  # zero timeout on ready: fine


def test_zero_timeout_on_pending_times_out(rt):
    def main():
        pending = Promise().get_future()
        with pytest.raises(FutureTimeoutError):
            pending.wait_for(0.0)
        return True

    assert rt.run(main)


def test_wait_for_succeeds_when_value_lands_in_window(rt):
    def main():
        future = async_after(1e-4, lambda: 42)
        future.wait_for(1e-3)
        return future.get()

    assert rt.run(main) == 42


def test_fire_exactly_at_deadline_counts_as_ready(rt):
    def main():
        future = async_after(1e-4, lambda: "on time")
        future.wait_for(1e-4)  # ready_time == deadline
        return future.get()

    assert rt.run(main) == "on time"


def test_wait_for_times_out_before_value(rt):
    def main():
        future = async_after(1e-3, lambda: "late")
        with pytest.raises(FutureTimeoutError):
            future.wait_for(1e-4)
        # The value is NOT consumed by the timeout: a later full wait works.
        return future.get()

    assert rt.run(main) == "late"


def test_get_with_timeout_mirrors_wait_for(rt):
    def main():
        good = async_after(1e-5, lambda: 7).get(timeout=1e-3)
        with pytest.raises(FutureTimeoutError):
            async_after(1e-3, lambda: 8).get(timeout=1e-5)
        return good

    assert rt.run(main) == 7


def test_timeout_advances_the_waiters_clock(rt):
    """A timed-out waiter observed the whole window: its later work starts
    no earlier than the deadline."""

    def main():
        from repro.runtime import context as ctx

        pending = Promise().get_future()
        with pytest.raises(FutureTimeoutError):
            pending.wait_for(5e-4)
        return ctx.current_task().current_virtual_time()

    assert rt.run(main) >= 5e-4


# when_all(timeout=) -----------------------------------------------------------

def test_when_all_completes_within_timeout(rt):
    def main():
        futs = [async_(lambda i=i: i) for i in range(4)]
        ready = when_all(futs, timeout=1.0).get()
        return sorted(f.get() for f in ready)

    assert rt.run(main) == [0, 1, 2, 3]


def test_when_all_timeout_fires_on_straggler(rt):
    def main():
        fast = async_(lambda: 1)
        never = Promise().get_future()
        with pytest.raises(FutureTimeoutError, match="1 of 2"):
            when_all([fast, never], timeout=1e-4).get()
        return True

    assert rt.run(main)


def test_when_all_empty_ignores_timeout(rt):
    def main():
        return when_all([], timeout=0.0).get()

    assert rt.run(main) == []


def test_when_all_timeout_needs_a_pool():
    with pytest.raises(RuntimeStateError):
        when_all([Promise().get_future()], timeout=1.0)


# Channel.get(timeout=) --------------------------------------------------------

def test_channel_buffered_value_beats_timeout(rt):
    def main():
        channel = Channel("c")
        channel.set(5)
        return channel.get(timeout=0.0).get()

    assert rt.run(main) == 5


def test_channel_times_out_when_empty(rt):
    def main():
        channel = Channel("c")
        with pytest.raises(ChannelTimeoutError):
            channel.get(timeout=1e-4).get()
        # The timed-out waiter is gone: a later set pairs with a later get.
        channel.set("later")
        return channel.get_sync()

    assert rt.run(main) == "later"


def test_channel_value_arriving_in_window(rt):
    def main():
        channel = Channel("c")
        async_after(1e-4, lambda: channel.set("made it"))
        return channel.get_sync(timeout=1e-2)

    assert rt.run(main) == "made it"


def test_channel_negative_timeout_rejected(rt):
    def main():
        with pytest.raises(RuntimeStateError):
            Channel("c").get(timeout=-1.0)
        return True

    assert rt.run(main)


def test_refused_channel_get_does_not_swallow_the_next_value(rt):
    def main():
        channel = Channel("c")
        with pytest.raises(RuntimeStateError):
            channel.get(timeout=-1.0)
        channel.set(7)
        reply = channel.get()
        assert reply.is_ready()
        return reply.get()

    assert rt.run(main) == 7


def test_channel_timeout_needs_a_pool():
    channel = Channel("c")
    with pytest.raises(RuntimeStateError):
        channel.get(timeout=1.0)
    channel.set(7)
    assert channel.get().get_nowait() == 7
