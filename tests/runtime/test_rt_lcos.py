"""Unit tests for the LCOs: channel and dataflow."""

import pytest

from repro.errors import ChannelClosedError
from repro.runtime import Channel, async_, dataflow, make_ready_future
from repro.runtime.futures import Promise


# Channel --------------------------------------------------------------------

class TestChannel:
    def test_set_then_get(self):
        channel = Channel()
        channel.set(1)
        channel.set(2)
        assert channel.get().get() == 1
        assert channel.get().get() == 2

    def test_get_then_set(self):
        channel = Channel()
        future = channel.get()
        assert not future.is_ready()
        channel.set("x")
        assert future.get() == "x"

    def test_fifo_among_getters(self):
        channel = Channel()
        f1, f2 = channel.get(), channel.get()
        channel.set("first")
        channel.set("second")
        assert f1.get() == "first"
        assert f2.get() == "second"

    def test_buffered_len(self):
        channel = Channel()
        channel.set(1)
        channel.set(2)
        assert len(channel) == 2

    def test_close_fails_waiters(self):
        channel = Channel("halo")
        future = channel.get()
        assert channel.close() == 1
        with pytest.raises(ChannelClosedError):
            future.get()

    def test_close_keeps_buffered_values(self):
        channel = Channel()
        channel.set(7)
        channel.close()
        assert channel.get().get() == 7  # buffered value survives close
        with pytest.raises(ChannelClosedError):
            channel.get().get()  # drained: further gets fail

    def test_set_after_close_rejected(self):
        channel = Channel()
        channel.close()
        with pytest.raises(ChannelClosedError):
            channel.set(1)

    def test_get_sync_in_runtime(self, rt):
        channel = Channel()

        def producer():
            channel.set(99)

        def main():
            async_(producer)
            return channel.get_sync()

        assert rt.run(main) == 99


# dataflow ---------------------------------------------------------------------

class TestDataflow:
    def test_plain_arguments_pass_through(self):
        assert dataflow(lambda a, b: a + b, 1, 2).get() == 3

    def test_future_arguments_unwrapped(self):
        assert dataflow(lambda a, b: a + b, make_ready_future(1), 2).get() == 3

    def test_fires_only_when_ready(self):
        promise = Promise()
        result = dataflow(lambda v: v * 10, promise.get_future())
        assert not result.is_ready()
        promise.set_value(4)
        assert result.get() == 40

    def test_kwarg_futures(self):
        result = dataflow(lambda a, b=0: a - b, 10, b=make_ready_future(3))
        assert result.get() == 7

    def test_exception_forwarded(self):
        result = dataflow(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            result.get()

    def test_chain_in_runtime(self, rt):
        def main():
            a = dataflow(lambda: 1)
            b = dataflow(lambda x: x + 1, a)
            c = dataflow(lambda x, y: x + y, a, b)
            return c.get()

        assert rt.run(main) == 3
