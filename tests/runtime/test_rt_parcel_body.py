"""The parcel body is ``(action, args, kwargs)`` for both kinds of parcel.

The target rides on the parcel (``target_gid`` or ``target_locality``),
so the body carries neither the GID nor a kind tag: ``action`` is a
component's method name when ``target_gid`` is set, else a plain
callable (shipped by reference) or a registered action name.  These
tests pin that shape on the wire and check that every delivery path --
by reference on a loopback port, decoded on a modelled network, and a
reship after an in-flight migration -- still reaches the right handler.
"""

from __future__ import annotations

import pytest

from repro.runtime import context as ctx
from repro.runtime.actions import action
from repro.runtime.agas.component import Component
from repro.runtime.parcel.serialization import deserialize
from repro.runtime.runtime import Runtime

#: ``machine=`` of the runtime: None is loopback (body by reference), a
#: machine model is a modelled network (the handler decodes the bytes).
PORTS = pytest.mark.parametrize("machine", [None, "xeon-e5-2660v3"], ids=["loopback", "network"])


class Recorder(Component):
    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple[int, object, object]] = []

    def record(self, value: object, *, tag: object = None) -> int:
        self.calls.append((ctx.here().locality_id, value, tag))
        return len(self.calls)


@action(name="test_rt_parcel_body.where")
def where(offset: int) -> int:
    return ctx.here().locality_id + offset


def _spy_on_sends(rt: Runtime, monkeypatch) -> list:
    sent = []
    send = rt.parcelport.send

    def spy(parcel):
        sent.append(parcel)
        return send(parcel)

    monkeypatch.setattr(rt.parcelport, "send", spy)
    return sent


def test_component_body_is_method_args_kwargs_without_a_gid(monkeypatch):
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        recorder = Recorder()
        gid = rt.new_component(recorder, locality_id=1)
        sent = _spy_on_sends(rt, monkeypatch)
        assert rt.run(lambda: rt.invoke(gid, "record", 7, tag="x")) == 1
        (parcel,) = sent
        assert parcel.target_gid == gid
        assert deserialize(parcel.payload) == ("record", (7,), {"tag": "x"})
        assert b"repro.runtime.agas.gid" not in parcel.payload
        assert recorder.calls == [(1, 7, "x")]


def test_plain_body_is_callable_args_kwargs(monkeypatch):
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        sent = _spy_on_sends(rt, monkeypatch)
        assert rt.run(lambda: rt.async_at(1, where, 10).get()) == 11
        rt.run(lambda: rt.apply_at(1, where, kwargs={"offset": 5}))
        rt.progress_all()
        assert [deserialize(p.payload) for p in sent] == [
            (where, (10,), {}),
            (where, (), {"offset": 5}),
        ]
        assert all(p.target_locality == 1 for p in sent)


@PORTS
def test_plain_actions_dispatch_by_callable_and_by_registered_name(machine):
    with Runtime(machine=machine, n_localities=2, workers_per_locality=1) as rt:
        assert rt.run(lambda: rt.async_at(1, where, 100).get()) == 101
        assert rt.run(lambda: rt.async_at(1, "test_rt_parcel_body.where", 200).get()) == 201
        assert all(not loc.pool.failures for loc in rt.localities)


@PORTS
def test_component_actions_reach_their_handler(machine):
    with Runtime(machine=machine, n_localities=2, workers_per_locality=1) as rt:
        recorder = Recorder()
        gid = rt.new_component(recorder, locality_id=1)

        def main() -> int:
            rt.invoke_apply(gid, "record", "one-way")
            return rt.invoke(gid, "record", "two-way", tag=2)

        assert rt.run(main) == 2
        rt.progress_all()
        assert recorder.calls == [(1, "one-way", None), (1, "two-way", 2)]


@pytest.mark.parametrize("one_way", [False, True], ids=["invoke_async", "invoke_apply"])
def test_object_migrated_in_flight_is_reshipped_with_its_decoded_body(one_way):
    """The loopback twin is in ``test_rt_agas_handle.py``."""
    with Runtime(machine="xeon-e5-2660v3", n_localities=3, workers_per_locality=1) as rt:
        recorder = Recorder()
        gid = rt.new_component(recorder, locality_id=1)

        def main() -> None:
            if one_way:
                rt.invoke_apply(gid, "record", "moved", tag="t")
            else:
                future = rt.invoke_async(gid, "record", "moved", tag="t")
            rt.agas.migrate(gid, 2)  # the handler is queued on locality 1
            if not one_way:
                assert future.get() == 1

        rt.run(main)
        rt.progress_all()
        assert recorder.calls == [(2, "moved", "t")]
        assert rt.parcelport.parcels_sent == 2  # old home, then the reship
        assert all(not loc.pool.failures for loc in rt.localities)
