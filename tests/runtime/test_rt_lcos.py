"""Unit tests for the LCO family: latch, barrier, channel, semaphore,
and-gate, dataflow."""

import pytest

from repro.errors import ChannelClosedError, RuntimeStateError
from repro.runtime import (
    AndGate,
    Barrier,
    Channel,
    CountingSemaphore,
    Latch,
    async_,
    dataflow,
    make_ready_future,
)
from repro.runtime.futures import Promise


# Latch -----------------------------------------------------------------------

class TestLatch:
    def test_opens_at_zero(self):
        latch = Latch(2)
        assert not latch.is_ready()
        latch.count_down()
        latch.count_down()
        assert latch.is_ready()
        latch.wait()  # returns immediately

    def test_zero_count_is_open(self):
        assert Latch(0).is_ready()

    def test_count_down_by_n(self):
        latch = Latch(5)
        latch.count_down(5)
        assert latch.is_ready()

    def test_over_release_rejected(self):
        latch = Latch(1)
        latch.count_down()
        with pytest.raises(RuntimeStateError):
            latch.count_down()

    def test_negative_count_rejected(self):
        with pytest.raises(RuntimeStateError):
            Latch(-1)
        with pytest.raises(RuntimeStateError):
            Latch(2).count_down(0)

    def test_wait_future(self):
        latch = Latch(1)
        future = latch.wait_future()
        assert not future.is_ready()
        latch.count_down()
        assert future.is_ready()

    def test_arrive_and_wait_in_runtime(self, rt):
        latch = Latch(3)
        log = []

        def worker(i):
            latch.arrive_and_wait()
            log.append(i)

        def main():
            futures = [async_(worker, i) for i in range(3)]
            for f in futures:
                f.get()

        rt.run(main)
        assert sorted(log) == [0, 1, 2]


# Barrier --------------------------------------------------------------------

class TestBarrier:
    def test_generation_counting(self):
        barrier = Barrier(2)
        f1 = barrier.arrive()
        assert not f1.is_ready()
        f2 = barrier.arrive()
        assert f1.is_ready() and f2.is_ready()
        assert f1.get() == 0
        assert barrier.generation == 1

    def test_reuse_across_generations(self):
        barrier = Barrier(1)
        assert barrier.arrive().get() == 0
        assert barrier.arrive().get() == 1
        assert barrier.generation == 2

    def test_waiting_count(self):
        barrier = Barrier(3)
        barrier.arrive()
        barrier.arrive()
        assert barrier.waiting == 2

    def test_invalid_parties(self):
        with pytest.raises(RuntimeStateError):
            Barrier(0)

    def test_lockstep_tasks(self, rt):
        barrier = Barrier(4)
        order = []

        def worker(i):
            order.append(("before", i))
            barrier.arrive_and_wait()
            order.append(("after", i))

        def main():
            futures = [async_(worker, i) for i in range(4)]
            for f in futures:
                f.get()

        rt.run(main)
        befores = [entry for entry in order if entry[0] == "before"]
        # All "before" entries must precede all "after" entries.
        assert order[: len(befores)] == befores


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


# Semaphore -------------------------------------------------------------------

class TestSemaphore:
    def test_initial_permits(self):
        sem = CountingSemaphore(2)
        assert sem.acquire().is_ready()
        assert sem.acquire().is_ready()
        assert not sem.acquire().is_ready()

    def test_release_wakes_fifo(self):
        sem = CountingSemaphore(0)
        f1, f2 = sem.acquire(), sem.acquire()
        sem.release()
        assert f1.is_ready() and not f2.is_ready()
        sem.release()
        assert f2.is_ready()

    def test_try_acquire(self):
        sem = CountingSemaphore(1)
        assert sem.try_acquire()
        assert not sem.try_acquire()

    def test_release_n(self):
        sem = CountingSemaphore(0)
        sem.release(3)
        assert sem.count == 3

    def test_max_count_over_release(self):
        sem = CountingSemaphore(1, max_count=1)
        with pytest.raises(RuntimeStateError):
            sem.release()

    def test_validation(self):
        with pytest.raises(RuntimeStateError):
            CountingSemaphore(-1)
        with pytest.raises(RuntimeStateError):
            CountingSemaphore(5, max_count=2)
        with pytest.raises(RuntimeStateError):
            CountingSemaphore(0).release(0)

    def test_throttling_pattern(self, rt):
        sem = CountingSemaphore(2)
        running = []
        peak = []

        def worker(i):
            sem.acquire_sync()
            running.append(i)
            peak.append(len(running))
            running.remove(i)
            sem.release()

        def main():
            futures = [async_(worker, i) for i in range(8)]
            for f in futures:
                f.get()

        rt.run(main)
        assert max(peak) <= 2


# AndGate ---------------------------------------------------------------------

class TestAndGate:
    def test_fires_when_all_slots_set(self):
        gate = AndGate(3)
        future = gate.get_future()
        gate.set(0, "a")
        gate.set(2, "c")
        assert not future.is_ready()
        gate.set(1, "b")
        assert future.get() == ["a", "b", "c"]

    def test_double_set_rejected(self):
        gate = AndGate(2)
        gate.set(0)
        with pytest.raises(RuntimeStateError):
            gate.set(0)

    def test_slot_range_checked(self):
        gate = AndGate(2)
        with pytest.raises(RuntimeStateError):
            gate.set(2)

    def test_remaining(self):
        gate = AndGate(2)
        assert gate.remaining == 2
        gate.set(1)
        assert gate.remaining == 1
        assert not gate.is_ready()

    def test_invalid_size(self):
        with pytest.raises(RuntimeStateError):
            AndGate(0)


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
