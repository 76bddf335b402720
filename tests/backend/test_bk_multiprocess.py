"""Multiprocess backend: real cross-process parcel roundtrips.

Each test spawns worker processes (one per non-zero locality), so the
runtimes here are kept deliberately tiny -- the point is the transport
semantics, not throughput.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config import Config
from repro.errors import RuntimeStateError
from repro.runtime import instrument
from repro.runtime.agas.component import Component
from repro.runtime.agas.gid import Gid
from repro.runtime.agas.service import AgasService
from repro.runtime.backend.multiprocess import (
    MultiprocessBackend,
    _Channel,
    _wait,
    _WorkerBackend,
)
from repro.runtime.backend.wire import decode_message, send_message
from repro.runtime.futures import Promise, when_all
from repro.runtime.parcel.serialization import serialize
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


@pytest.mark.parametrize("home", [0, 1])
def test_a_component_registered_before_start_is_mirrored(home):
    """A registration made before the workers exist is mirrored to them
    when they start, so its GID resolves from locality 1 and from the
    driver, and its state lives in one place: its home."""
    rt = _mp_runtime()
    gid = rt.new_component(_Counter(), locality_id=home)
    with rt:
        assert rt.async_at(1, _invoke_remote_add, gid, 5).get() == 5
        assert rt.invoke_async(gid, "add", 7).get() == 12
        assert rt.async_at(1, _invoke_remote_read, gid).get() == 12
        assert rt.invoke_async(gid, "read").get() == 12


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


def test_a_parcel_is_on_the_wire_when_the_send_returns():
    """No outbox: routing a cross-process parcel writes its message."""
    assert not hasattr(MultiprocessBackend, "flush")
    with _mp_runtime() as rt:
        gid = rt.new_component(_Counter(), locality_id=1)
        before = query(rt, "/backend{total}/count/messages")
        rt.invoke_apply(gid, "add", 1)
        assert query(rt, "/backend{total}/count/messages") == before + 1
        assert rt.invoke_async(gid, "read").get() == 1


_ARRIVED: list = []


def _big(n):
    return np.arange(n, dtype=np.float64)


def _arrive(array):
    _ARRIVED.append(array)


def _push_big(n):
    from repro.runtime import context as ctx

    ctx.current().runtime.apply_at(0, _arrive, _big(n))


def test_final_large_reply_and_worker_stats_arrive():
    """The last calls before ``stop`` leave 4 MB -- more than a socket
    holds -- queued in the worker: a two-way reply, and a one-way push
    that no reply token waits for.  Both land before shutdown ends, and
    the worker's "stopped" statistics after them (a sync ack queues
    behind the worker's earlier output, so no round ends on unread
    output)."""
    n = (4 << 20) // 8
    _ARRIVED.clear()
    with _mp_runtime() as rt:
        result = rt.async_at(1, _big, n)
        rt.apply_at(1, _push_big, n)
    assert np.array_equal(result.get(), _big(n))
    assert len(_ARRIVED) == 1 and np.array_equal(_ARRIVED[0], _big(n))
    assert sorted(rt.backend.worker_stats()) == [1]
    assert rt.backend.worker_stats()[1]["tasks_executed"] > 0


def test_a_worker_answers_a_sync_round_after_running_its_work():
    """A worker acks a termination round only once it has run what it
    holds, so the reply to a parcel read with the round goes out first.
    Acked as it was read, a worker whose reads never found the socket
    empty -- the driver sends the next round as soon as an ack lands --
    acked "busy" 64 times without running anything; the driver then
    stopped with the reply unsent."""
    driver_sock, worker_sock = socket.socketpair()
    driver, worker_channel = _Channel(driver_sock), _Channel(worker_sock)
    backend = _WorkerBackend(worker_channel, 1)
    config = Config.from_mapping(
        {"runtime.backend": "multiprocess", "runtime.quiescence": "ignore"}
    )
    body = serialize((_double, ([1, 2],), {}))
    send_message(driver, ("parcel", (0, 1, body, None, 1, (0, 1), False, None)))
    send_message(driver, ("sync", 1))

    def serve():
        with Runtime(
            n_localities=2, workers_per_locality=1, config=config, _backend=backend
        ):
            backend.serve()

    worker = threading.Thread(target=serve)
    worker.start()
    kinds = []
    try:
        while "sync-ack" not in kinds and _wait([driver], 10.0):
            kinds.extend(decode_message(frame)[0] for frame in driver.frames())
    finally:
        send_message(driver, ("stop",))
        worker.join(timeout=10.0)
        worker_channel.close()
        driver.close()
    assert not worker.is_alive()
    assert kinds[:2] == ["reply", "sync-ack"]


def test_a_reply_that_never_comes_fails_its_future():
    """Shutdown leaves no reply token silently pending: when the worker
    dies mid-call, the caller's future fails with a typed error instead
    of never becoming ready."""
    with pytest.raises(RuntimeStateError, match="exited unexpectedly"):
        with _mp_runtime() as rt:
            result = rt.async_at(1, os._exit, 3)
    with pytest.raises(RuntimeStateError, match="never arrived"):
        result.get()


def test_a_reply_read_during_shutdown_lands_at_once():
    """Once the driver is stopping no pool runs, so a reply read in the
    stop handshake sets its future directly instead of queueing a task
    that nothing would run."""
    backend = MultiprocessBackend()
    backend._stopping = True
    promise = Promise()
    backend._tokens[7] = promise
    backend._route_reply(0, 7, True, serialize(42))
    assert promise.get_future().get() == 42 and not backend._tokens


def test_channel_close_writes_what_is_still_queued():
    """The drain itself: a frame the socket could not take is written
    out by ``close`` before the socket goes, so the reader gets it whole
    and only then sees the end of the stream."""
    a, b = socket.socketpair()
    sender, reader = _Channel(a), _Channel(b)
    data = bytes(range(256)) * (16 << 10)  # 4 MB
    sender.send(data)
    assert sender.out  # the socket took only part of it
    closing = threading.Thread(target=sender.close)
    closing.start()
    frames = []
    with pytest.raises(EOFError):
        while _wait([reader], 10.0):
            frames.extend(reader.frames())
    closing.join(timeout=10.0)
    assert not closing.is_alive()
    reader.close()
    assert frames == [data]


_FANOUT_SCRIPT = textwrap.dedent(
    """
    import numpy as np

    from repro.config import Config
    from repro.runtime import context as ctx
    from repro.runtime.runtime import Runtime


    def echo(x):
        return x


    def fan_back(n, nbytes):
        rt = ctx.current().runtime
        futures = [rt.async_at(0, echo, np.full(nbytes, i % 251, np.uint8))
                   for i in range(n)]
        return [int(f.get()[0]) for f in futures]


    config = Config(runtime__backend="multiprocess")
    with Runtime(n_localities=2, workers_per_locality=1, config=config) as rt:
        for n, nbytes in ((500, 8192), (2000, 2048)):
            want = [i % 251 for i in range(n)]
            # Every call is issued before any get: each side writes far
            # more than the socket holds while the other is writing too.
            futures = [rt.async_at(1, echo, np.full(nbytes, i % 251, np.uint8))
                       for i in range(n)]
            back = rt.async_at(1, fan_back, n, nbytes)
            assert [int(f.get()[0]) for f in futures] == want
            assert back.get() == want
    print("ok")
    """
)


def test_two_way_fanout_larger_than_the_socket_completes():
    """Both processes write more than a socket holds at once; neither
    write may block.  Run in a child process so that a hang fails the
    test instead of the suite; the child gets its own session so that a
    hung run's worker process is killed with it."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    with subprocess.Popen(
        [sys.executable, "-c", _FANOUT_SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as child:
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("two-way fan-out hung: a socket write blocked both processes")
    assert child.returncode == 0, err
    assert out.strip() == "ok"


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


def _invoke_remote_read(gid):
    from repro.runtime import context as ctx

    return ctx.current().runtime.invoke_async(gid, "read").get()


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
