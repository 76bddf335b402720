"""A component action on the caller's own locality is a task, not a parcel.

As in HPX, ``invoke_apply``/``invoke_async`` build a parcel only when the
target's AGAS home is another locality; a target homed here gets its
handler posted straight onto the home pool.  These tests pin what the
local path skips (encode, parcel counters) and what it keeps from the
parcel path: the handler's pool, ready time and result, failure
reporting, and forwarding when the target migrates before the handler
runs.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ParcelDeadLetterError, SerializationError
from repro.runtime import context as ctx
from repro.runtime import runtime as runtime_module
from repro.runtime.agas import Component
from repro.runtime.runtime import Runtime

#: Virtual compute the sender spends before its send, so the send time
#: (and with it the handler's ready time) is not zero.
SENDER_COST = 3e-6


class Where(Component):
    """Records how each of its actions was scheduled."""

    def __init__(self) -> None:
        super().__init__()
        self.seen: list[tuple[str, float]] = []

    def note(self, value: int) -> int:
        frame = ctx.current()
        self.seen.append((frame.pool.name, frame.task.ready_time))
        return 2 * value

    def boom(self) -> None:
        raise ValueError("action failed")

    def take(self, thing) -> str:
        return type(thing).__name__


def _parcel_counts(rt: Runtime) -> tuple[int, int, int]:
    port = rt.parcelport
    return port.parcels_sent, port.bytes_sent, port.parcels_delivered


@pytest.fixture
def encodes(monkeypatch):
    """Count the runtime's parcel-body encodes."""
    calls = []
    real = runtime_module.serialize

    def counting(body):
        calls.append(body)
        return real(body)

    monkeypatch.setattr(runtime_module, "serialize", counting)
    return calls


def _send_from(rt: Runtime, locality: int, gid, one_way: bool):
    """From a task on ``locality``: spend SENDER_COST, invoke ``note(21)``
    on ``gid``; returns (send time, result or None)."""

    def sender():
        ctx.add_cost(SENDER_COST)
        sent_at = ctx.current().task.current_virtual_time()
        if one_way:
            rt.invoke_apply(gid, "note", 21)
            return sent_at, None
        return sent_at, rt.invoke_async(gid, "note", 21).get()

    def main():
        return rt.localities[locality].pool.submit(sender).get()

    out = rt.run(main)
    rt.progress_all()
    return out


@pytest.mark.parametrize("one_way", [True, False], ids=["apply", "async"])
def test_local_action_is_no_parcel_but_runs_like_a_remote_one(one_way, encodes):
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        target = Where()
        gid = rt.new_component(target, locality_id=1)

        # Remote: sent from locality 0, delivered by the (zero-delay)
        # loopback port onto locality 1.
        remote_sent, remote_result = _send_from(rt, 0, gid, one_way)
        assert _parcel_counts(rt)[0] == 1
        assert len(encodes) == 1

        # Local: the same action sent from locality 1 itself.
        before, encoded = _parcel_counts(rt), len(encodes)
        local_sent, local_result = _send_from(rt, 1, gid, one_way)
        assert _parcel_counts(rt) == before
        assert len(encodes) == encoded

    pool = rt.localities[1].pool.name
    assert target.seen == [(pool, remote_sent), (pool, local_sent)]
    assert local_result == remote_result == (None if one_way else 42)


def test_local_one_way_failure_lands_in_the_home_pool():
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        gid = rt.new_component(Where(), locality_id=0)
        rt.run(lambda: rt.invoke_apply(gid, "boom"))
        rt.progress_all()
        (failure,) = rt.localities[0].pool.failures
        assert isinstance(failure[1], ValueError)
        assert rt.agas.entry(gid).pinned == 0
        assert rt.parcelport.parcels_sent == 0


def test_local_two_way_failure_fails_the_callers_future():
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        gid = rt.new_component(Where(), locality_id=0)

        def main():
            with pytest.raises(ValueError, match="action failed"):
                rt.invoke(gid, "boom")

        rt.run(main)
        assert rt.localities[0].pool.failures == []
        assert rt.parcelport.parcels_sent == 0


@pytest.mark.parametrize("one_way", [True, False], ids=["apply", "async"])
def test_target_migrated_between_post_and_run_is_forwarded(one_way):
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        target = Where()
        gid = rt.new_component(target, locality_id=0)

        def main():
            if one_way:
                rt.invoke_apply(gid, "note", 1)
            else:
                future = rt.invoke_async(gid, "note", 1)
            # The handler is queued on locality 0; move the target away.
            rt.agas.migrate(gid, 1)
            if not one_way:
                assert future.get() == 2

        rt.run(main)
        rt.progress_all()
        assert [pool for pool, _ in target.seen] == [rt.localities[1].pool.name]
        # The post was free; only the forward to the new home is a parcel.
        assert rt.parcelport.parcels_sent == 1
        assert rt.localities[0].pool.failures == []


def test_unpicklable_argument_is_accepted_locally_and_refused_remotely():
    """The local path hands arguments over by reference, as HPX does for
    a local action; only a parcel has to encode them."""
    lock = threading.Lock()
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        here = rt.new_component(Where(), locality_id=0)
        there = rt.new_component(Where(), locality_id=1)

        def main():
            assert rt.invoke(here, "take", lock) == "lock"
            with pytest.raises(SerializationError):
                rt.invoke_async(there, "take", lock)
            with pytest.raises(SerializationError):
                rt.invoke_apply(there, "take", lock)

        rt.run(main)
        assert rt.parcelport.parcels_sent == 0


def test_send_from_a_decommissioned_locality_is_reported_lost():
    """A decommissioned pool runs nothing more, so a post there would hang
    the caller; the send takes the parcel path and is dead-lettered."""
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        gid = rt.new_component(Where(), locality_id=1)

        def on_the_dying_locality():
            rt.decommission_locality(1)
            return rt.invoke_async(gid, "note", 1)

        def main():
            future = rt.localities[1].pool.submit(on_the_dying_locality).get()
            with pytest.raises(ParcelDeadLetterError):
                future.get()

        rt.run(main)
        assert rt.parcelport.parcels_dead_lettered == 1
