"""Multiprocess backend: real cross-process parcel roundtrips.

Each test spawns worker processes (one per non-zero locality), so the
runtimes here are kept deliberately tiny -- the point is the transport
semantics, not throughput.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.config import Config
from repro.runtime import instrument
from repro.runtime.agas.component import Component
from repro.runtime.agas.gid import Gid
from repro.runtime.agas.service import AgasService
from repro.runtime.futures import when_all
from repro.runtime.perfcounters import discover, query
from repro.runtime.runtime import Runtime


def _mp_runtime(n=2, workers=1, **extra):
    config = Config.from_mapping({"runtime.backend": "multiprocess", **extra})
    return Runtime(n_localities=n, workers_per_locality=workers, config=config)


def _double(values):
    return [2 * v for v in values]


def _np_sum(arr):
    return float(np.sum(arr))


def _boom(text):
    raise ValueError(text)


def _pid():
    return os.getpid()


class _Counter(Component):
    def __init__(self):
        super().__init__()
        self.total = 0

    def add(self, amount):
        self.mark_write("total")
        self.total += int(amount)
        return self.total

    def read(self):
        self.mark_read("total")
        return self.total


def test_async_at_roundtrip_plain_and_numpy():
    with _mp_runtime() as rt:
        assert rt.async_at(1, _double, [1, 2, 3]).get() == [2, 4, 6]
        assert rt.async_at(1, _np_sum, np.arange(10.0)).get() == 45.0
    counters = rt.backend.counters()
    assert counters["parcels_forwarded"] >= 2
    assert counters["wire_bytes_sent"] > 0


def test_remote_work_runs_in_another_process():
    with _mp_runtime() as rt:
        remote_pid = rt.async_at(1, _pid).get()
    assert remote_pid != os.getpid()


def test_exceptions_propagate_across_processes():
    with _mp_runtime() as rt:
        future = rt.async_at(1, _boom, "remote failure")
        with pytest.raises(ValueError, match="remote failure"):
            future.get()


def test_component_state_lives_in_home_process():
    with _mp_runtime() as rt:
        gid = rt.new_component(_Counter(), locality_id=1)
        assert rt.invoke_async(gid, "add", 5).get() == 5
        assert rt.invoke_async(gid, "add", 7).get() == 12
        assert rt.invoke_async(gid, "read").get() == 12
    assert rt.backend.counters()["agas_creates"] >= 1


def test_worker_to_worker_invoke_relays_through_driver():
    with _mp_runtime(n=3) as rt:
        gid = rt.new_component(_Counter(), locality_id=2)
        # A handler on locality 1 invoking a component homed at
        # locality 2: the parcel crosses worker->driver->worker.
        total = rt.async_at(1, _invoke_remote_add, gid, 9).get()
        assert total == 9
    assert rt.backend.counters()["parcels_relayed"] >= 1


def test_parcel_from_the_wire_carries_no_agas_handle_and_resolves_on_arrival():
    """The resolved AGAS entry is process-local: the wire entry has no
    slot for it, so a parcel rebuilt from pipe bytes looks its GID up
    where it lands."""
    with _mp_runtime() as rt:
        gid = rt.new_component(_Counter(), locality_id=0)
        arrived = []
        route = rt._route_parcel

        def recording_route(parcel, arrival_time):
            arrived.append((parcel.target_gid, parcel.target_entry))
            route(parcel, arrival_time)
            arrived.append(parcel.target_entry)

        rt._route_parcel = recording_route
        # A handler in the worker process invokes a component homed in
        # the driver: its parcel reaches this process as wire bytes.
        assert rt.async_at(1, _invoke_remote_add, gid, 9).get() == 9
        del rt._route_parcel
        assert arrived == [(gid, None), rt.agas.entry(gid)]


def test_fire_and_forget_applies_before_shutdown():
    """apply_at work in flight is caught by the termination sync rounds."""
    with _mp_runtime() as rt:
        gid = rt.new_component(_Counter(), locality_id=1)
        for _ in range(4):
            rt.invoke_apply(gid, "add", 1)
        # No reply token exists; quiescence must still wait for the
        # remote applies, so a subsequent read sees all of them.
        assert rt.invoke_async(gid, "read").get() == 4


def test_fanout_over_all_localities():
    with _mp_runtime(n=4) as rt:
        futures = [rt.async_at(i % 4, _double, [i]) for i in range(12)]
        results = [f.get() for f in when_all(futures).get()]
    assert results == [[2 * i] for i in range(12)]


def test_cross_process_sends_carry_real_bytes():
    """The by-reference body stays behind at the process boundary."""
    with _mp_runtime() as rt:
        arr = np.linspace(0.0, 1.0, 257)
        assert rt.async_at(1, _np_sum, arr).get() == float(np.sum(arr))
    assert rt.backend.counters()["wire_bytes_sent"] > 0


def test_backend_perfcounters_query_and_discover():
    with _mp_runtime() as rt:
        rt.async_at(1, _double, [1]).get()
        assert query(rt, "/backend{total}/count/forwarded") >= 1.0
        assert query(rt, "/backend{total}/count/processes") == 2.0
        assert query(rt, "/backend{total}/data/sent") > 0.0
        paths = discover(rt)
        assert "/backend{total}/count/forwarded" in paths
        assert "/backend{total}/count/remote-tasks" in paths
    # Worker statistics land with the "stopped" handshake at shutdown.
    assert query(rt, "/backend{total}/count/remote-tasks") > 0.0


def test_backend_counters_read_zero_on_virtual():
    with Runtime(n_localities=2) as rt:
        assert query(rt, "/backend{total}/count/forwarded") == 0.0
        assert query(rt, "/backend{total}/count/processes") == 0.0
        assert all(not p.startswith("/backend") for p in discover(rt))


def test_worker_stats_aggregate_to_driver():
    with _mp_runtime(n=3) as rt:
        when_all([rt.async_at(i, _double, [i]) for i in (1, 2)]).get()
    stats = rt.backend.worker_stats()
    assert sorted(stats) == [1, 2]
    for worker_id, entry in stats.items():
        assert entry["locality"] == worker_id
        assert entry["tasks_executed"] > 0
        assert entry["pid"] != os.getpid()


def test_agas_broker_fallback_resolves_and_caches():
    """Unit-level: an unknown GID consults the broker once, then caches."""
    agas = AgasService(2)
    sentinel = object()
    calls = []

    def broker(gid):
        calls.append(gid)
        return (1, sentinel)

    agas.broker = broker
    gid = Gid(msb_locality=1, lsb=7)
    assert agas.resolve(gid) == (1, sentinel)
    assert agas.resolve(gid) == (1, sentinel)
    assert len(calls) == 1  # second hit answered from the cache


def test_agas_register_at_mirrors_fixed_gids():
    agas = AgasService(2)
    obj = object()
    gid = Gid(msb_locality=1, lsb=3)
    agas.register_at(obj, gid, home=1)
    assert agas.resolve(gid) == (1, obj)
    # The local counter advanced past the mirrored allocation, so a
    # fresh local registration cannot collide with it.
    fresh = agas.register(object(), home=1)
    assert fresh.lsb > 3


def _invoke_remote_add(gid, amount):
    from repro.runtime import context as ctx

    return ctx.current().runtime.invoke_async(gid, "add", amount).get()


def _seam_state():
    return instrument.enabled, len(instrument.active_probes())


def test_forked_worker_starts_with_an_empty_seam(seam_events):
    """A probe installed in the driver is not the worker's: the forked
    process must neither take the probed branches nor be able to
    resurrect the driver's probes with its first ``install``."""
    assert _seam_state() == (True, 1)
    with _mp_runtime() as rt:
        assert rt.async_at(1, _seam_state).get() == (False, 0)
        probed = rt.async_at(1, _double, [1, 2, 3]).get()
    instrument.uninstall(seam_events)
    with _mp_runtime() as rt:
        assert rt.async_at(1, _double, [1, 2, 3]).get() == probed
