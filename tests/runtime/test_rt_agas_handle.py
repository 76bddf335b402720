"""The AGAS entry handle a component parcel carries from send to delivery.

Resolution happens once, at the send; routing and the handler work on
the table row itself.  These tests open the window between send and
delivery (a loopback send queues the handler task, which runs only when
the sender yields) and migrate the object inside it.
"""

from __future__ import annotations

import pytest

from repro.errors import MigrationError, UnknownGidError
from repro.runtime import context as ctx
from repro.runtime.agas import Component, Gid
from repro.runtime.futures import Promise
from repro.runtime.runtime import Runtime


class Probe(Component):
    """Records where its actions ran."""

    def __init__(self) -> None:
        super().__init__()
        self.ran_on: list[int] = []

    def touch(self) -> int:
        self.ran_on.append(ctx.here().locality_id)
        return len(self.ran_on)

    def boom(self) -> None:
        raise ValueError("action failed")

    def migrate_under_own_feet(self) -> str:
        """Block on a gate that only a sibling task's migration attempt
        opens: the attempt runs underneath this (pinned) action's wait."""
        frame = ctx.current()
        gate = Promise()

        def attempt() -> None:
            try:
                frame.runtime.agas.migrate(self.gid, 0)
            except MigrationError as exc:
                gate.set_value(f"refused: {exc}")
            else:
                gate.set_value("migrated")

        frame.pool.post(attempt)
        return gate.get_future().get()  # repro-lint: disable=PX301


def test_send_to_unknown_gid_still_fails_at_the_send():
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        gid = Gid(msb_locality=1, lsb=999)
        with pytest.raises(UnknownGidError):
            rt.invoke_apply(gid, "touch")
        with pytest.raises(UnknownGidError):
            rt.invoke_async(gid, "touch")
        assert rt.parcelport.parcels_sent == 0


@pytest.mark.parametrize("one_way", [False, True], ids=["invoke_async", "invoke_apply"])
def test_object_migrated_in_flight_is_reshipped_to_its_new_home(one_way):
    with Runtime(n_localities=3, workers_per_locality=1) as rt:
        probe = Probe()
        gid = rt.new_component(probe, locality_id=1)

        def main():
            if one_way:
                rt.invoke_apply(gid, "touch")
            else:
                future = rt.invoke_async(gid, "touch")
            rt.agas.migrate(gid, 2)  # the handler is queued on locality 1
            if not one_way:
                assert future.get() == 1

        rt.run(main)
        rt.progress_all()
        assert probe.ran_on == [2]
        # One transmission to the old home, one reship to the new one.
        assert rt.parcelport.parcels_sent == 2
        assert rt.localities[1].pool.failures == []


def test_pin_count_returns_to_zero_when_the_action_raises():
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        gid = rt.new_component(Probe(), locality_id=1)
        entry = rt.agas.entry(gid)

        def main():
            with pytest.raises(ValueError, match="action failed"):
                rt.invoke(gid, "boom")
            rt.invoke_apply(gid, "boom")

        rt.run(main)
        rt.progress_all()
        assert entry.pinned == 0
        assert len(rt.localities[1].pool.failures) == 1
        assert rt.agas.migrate(gid, 0) == 0  # nothing left pinning it


def test_migrate_during_a_blocked_action_is_refused():
    with Runtime(n_localities=2, workers_per_locality=2) as rt:
        gid = rt.new_component(Probe(), locality_id=1)
        entry = rt.agas.entry(gid)
        outcome = rt.run(lambda: rt.invoke(gid, "migrate_under_own_feet"))
        assert outcome.startswith("refused: ") and "pinned by 1" in outcome
        assert entry.pinned == 0
        assert rt.agas.home_of(gid) == 1
