"""The multiprocess backend: one OS process per locality, real cores.

Topology is hub-and-spoke: the driver process (locality 0, the one that
constructed the user's :class:`Runtime`) owns a socket pair to each
worker process and relays worker-to-worker traffic.  Every process runs
a full Runtime over the *same* locality count -- its own locality is the
one it executes; parcels routed anywhere else are intercepted at the
router and written to the socket the moment they are routed, in the
existing encode-once wire format (:mod:`repro.runtime.backend.wire`).

No write ever blocks: a :class:`_Channel` writes what the socket takes
and keeps the rest of a frame while its process goes on reading, so two
processes that both send more than a socket holds cannot wedge each
other, and a halo row leaves while the next partition's kernel runs.

Because each process is a real Python interpreter, per-locality worker
pools do real concurrent work outside the driver's GIL -- which is the
entire point: wall-clock speedup on multi-core hosts instead of modelled
speedup on the virtual clock.

What the virtual clock guarantees and this backend does not: virtual
timestamps are only locally monotonic (cross-process ``makespan`` is not
a job-wide clock), and anything defined *in terms of* the virtual clock
-- fault-injection windows, overload credits, the modelled
interconnects -- is rejected up front with a
:class:`~repro.errors.ConfigError` (see
``Runtime._check_distributed_config``).

AGAS stays coherent by mirroring alone: every registration is sent to
every process (the home process receives the pickled component, others a
placeholder binding).  Every message passes through the driver in
order, so a registration reaches each process before any message that
names its GID; registrations made before :meth:`MultiprocessBackend.start`
are mirrored to the workers as soon as they exist.
"""
# This file IS the OS-process transport: the one place in the tree where
# real OS concurrency primitives are the point, not a bypass.
# repro-lint: disable-file=PX201

from __future__ import annotations

import os
import select
import socket
import struct
import warnings
from collections import deque
from typing import TYPE_CHECKING, Any, Iterator

from ...errors import RuntimeStateError
from ..futures import Promise
from ..parcel.parcel import Parcel
from ..parcel.serialization import serialize
from .wire import decode_message, parcel_entry, send_message

if TYPE_CHECKING:  # pragma: no cover
    from ..agas.component import Component
    from ..agas.gid import Gid
    from ..runtime import Runtime

__all__ = ["MultiprocessBackend"]

#: Progress-loop steps between opportunistic transport polls.
_SERVICE_MASK = 0x3F
#: Seconds a process blocks on its transport before diagnosing a stall.
_STALL_TIMEOUT_S = 60.0
#: Shutdown termination-detection round cap.
_SYNC_ROUNDS = 64
#: A frame is this length prefix, then that many bytes.
_HEADER = struct.Struct("!Q")
#: Poll events that send a channel to :meth:`_Channel.frames`: data, or
#: the end of the stream.
_READABLE = select.POLLIN | select.POLLHUP | select.POLLERR


class _Channel:
    """One end of a socket pair, carrying length-prefixed frames.

    The socket never blocks.  :meth:`send` queues a frame and writes
    what the socket takes; the rest waits in ``out`` for :meth:`pump`,
    which the process calls whenever it services its transport, so it
    keeps reading while its own output is stuck.
    """

    __slots__ = ("sock", "out", "_head", "_in", "_got", "_eof")

    def __init__(self, sock: socket.socket) -> None:
        sock.setblocking(False)
        self.sock = sock
        #: Frames (or the unwritten tail of the first) not yet written.
        self.out: deque[bytes | memoryview] = deque()
        self._head = bytearray(_HEADER.size)
        #: The length prefix or the frame being read, and its bytes so far.
        self._in = self._head
        self._got = 0
        self._eof = False

    def fileno(self) -> int:
        return self.sock.fileno()

    def send(self, data: bytes) -> None:
        self.out.append(_HEADER.pack(len(data)) + data)
        self.pump()

    def pump(self) -> None:
        """Write as much queued output as the socket will take.  Output
        for a peer that has gone is dropped: reading reports the loss."""
        out = self.out
        try:
            while out:
                sent = self.sock.send(out[0])
                if sent < len(out[0]):
                    out[0] = memoryview(out[0])[sent:]
                    return
                out.popleft()
        except (BlockingIOError, InterruptedError):
            pass
        except (BrokenPipeError, ConnectionResetError):
            out.clear()

    def frames(self) -> Iterator[bytearray]:
        """Every complete inbound frame, oldest first; raises
        :class:`EOFError` once the peer has closed and none is left.

        A frame is read straight into a buffer of its own length, so no
        frame is copied on the way in.  Reading state is reset before a
        frame is yielded: a handler that services the channel again
        continues with the next frame, in order.
        """
        while True:
            buf = self._in
            if self._got < len(buf):
                if self._eof:
                    raise EOFError
                try:
                    got = self.sock.recv_into(memoryview(buf)[self._got :])
                except (BlockingIOError, InterruptedError):
                    return
                except ConnectionResetError:
                    got = 0
                self._eof = not got
                self._got += got
                continue
            self._got = 0
            if buf is self._head:
                self._in = bytearray(_HEADER.unpack_from(buf)[0])
            else:
                self._in = self._head
                yield buf

    def close(self) -> None:
        """Write what is still queued (bounded by the stall timeout), then
        close: a final reply must not die with its sender."""
        try:
            self.sock.settimeout(_STALL_TIMEOUT_S)
            for data in self.out:
                self.sock.sendall(data)
        except OSError:
            pass
        self.sock.close()


def _wait(channels: list[_Channel], timeout: float) -> list[_Channel]:
    """Pump every channel whose socket takes output until one of them
    is readable; returns the readable ones (none after ``timeout``)."""
    poller = select.poll()
    by_fd = {}
    for channel in channels:
        by_fd[channel.fileno()] = channel
        poller.register(
            channel, select.POLLIN | (select.POLLOUT if channel.out else 0)
        )
    while True:
        events = poller.poll(timeout * 1e3)
        readable = []
        for fd, event in events:
            channel = by_fd[fd]
            if event & select.POLLOUT:
                channel.pump()
                if not channel.out:
                    poller.modify(channel, select.POLLIN)
            if event & _READABLE:
                readable.append(channel)
        if readable or not events:
            return readable


class _PipeBackend:
    """Shared send/dispatch machinery for the driver and worker sides:
    ``Runtime.backend`` of a multiprocess job."""

    #: The owning runtime, set by ``Runtime.__init__``.
    runtime: "Runtime"
    #: Locality id this process executes (0 = the driver).
    my_id: int

    def __init__(self) -> None:
        # seq -> reply Promise for tokened sends originated here.
        self._tokens: dict[int, Promise] = {}
        self._token_seq = 0
        self._tick = 0
        #: Any wire sends since the last sync ack/round (termination
        #: detection reads and resets this).
        self._activity = False
        self._stopping = False
        # Counters (perfcounter sources; see /backend{total}/...).
        self.parcels_forwarded = 0
        self.parcels_received = 0
        self.parcels_relayed = 0
        self.replies_sent = 0
        self.replies_received = 0
        self.messages_sent = 0
        self.wire_bytes_sent = 0
        self.agas_creates = 0
        self.sync_rounds = 0

    # Send path -------------------------------------------------------------
    def forward_parcel(self, parcel: Parcel, destination: int) -> None:
        """Write ``parcel`` towards the process that owns ``destination``.
        Its ``by_ref_body`` stays behind: the receiver decodes the payload."""
        token = None
        promise = parcel.reply_promise
        if promise is not None and not parcel.fire_and_forget:
            self._token_seq += 1
            token = (self.my_id, self._token_seq)
            self._tokens[self._token_seq] = promise
        self._send(destination, ("parcel", parcel_entry(parcel, destination, token)))
        self.parcels_forwarded += 1
        self._activity = True

    def maybe_service(self) -> bool:
        """The progress loop's cheap poll: a non-blocking :meth:`service`
        once every ``_SERVICE_MASK + 1`` calls."""
        self._tick += 1
        if self._tick & _SERVICE_MASK:
            return False
        return self.service(block=False)

    # Inbound dispatch ------------------------------------------------------
    def _dispatch(self, message: tuple) -> None:
        kind = message[0]
        if kind == "parcel":
            self._route_entry(message[1])
        elif kind == "reply":
            _, origin, seq, ok, data = message
            self._route_reply(origin, seq, ok, data)
        elif kind == "create":
            _, origin, gid, home, data = message
            self._apply_create(origin, gid, home, data)
        else:
            self._dispatch_control(message)

    def _dispatch_control(self, message: tuple) -> None:
        raise RuntimeStateError(f"unexpected wire message {message[0]!r}")

    def _route_entry(self, entry: tuple) -> None:
        """Deliver (or, on the driver, relay) one inbound parcel entry."""
        destination = entry[1]
        if destination == self.my_id:
            self._deliver_entry(entry)
        else:
            self._send(destination, ("parcel", entry))
            self.parcels_relayed += 1
            self._activity = True

    def _deliver_entry(self, entry: tuple) -> None:
        source, _dest, payload, gid, target_locality, token, faf, priority = entry
        runtime = self.runtime
        parcel = Parcel(
            source_locality=source,
            payload=payload,
            target_gid=gid,
            target_locality=target_locality,
            send_time=runtime.makespan,
        )
        parcel.fire_and_forget = faf
        parcel.priority = priority
        if token is not None:
            # Two-way: the origin holds the caller's promise under
            # ``token``; this stand-in relays the outcome back to it.
            promise = Promise()
            parcel.reply_promise = promise
            origin, seq = token
            backend = self

            def relay_reply(future: Any) -> None:
                state = future._state
                if state.exception is None:
                    try:
                        data = serialize(state.value)
                        ok = True
                    except Exception as exc:  # unpicklable result
                        data = serialize(exc)
                        ok = False
                else:
                    data = serialize(state.exception)
                    ok = False
                backend._send(origin, ("reply", origin, seq, ok, data))
                backend.replies_sent += 1
                backend._activity = True

            promise.get_future()._on_ready(relay_reply)
        self.parcels_received += 1
        runtime._route_parcel(parcel, arrival_time=parcel.send_time)

    def _route_reply(self, origin: int, seq: int, ok: bool, data: bytes) -> None:
        if origin != self.my_id:  # driver relaying a worker's reply
            self._send(origin, ("reply", origin, seq, ok, data))
            return
        promise = self._tokens.pop(seq, None)
        if promise is None:
            return
        self.replies_received += 1
        value = decode_message(data)
        if self._stopping:  # no pool runs any more: the reply lands now
            (promise.set_value if ok else promise.set_exception)(value)
            return
        self.runtime.localities[self.my_id].pool.post(
            promise.set_value if ok else promise.set_exception,
            value,
            description="remote-reply",
        )

    # AGAS mirroring --------------------------------------------------------
    def component_registered(
        self, component: "Component", gid: "Gid", home: int
    ) -> None:
        self.agas_creates += 1
        self._broadcast_create(
            self.my_id, gid, home, serialize(component), exclude=self.my_id
        )

    def _apply_create(self, origin: int, gid: "Gid", home: int, data: bytes) -> None:
        agas = self.runtime.agas
        if gid not in agas:
            obj = decode_message(data) if home == self.my_id else None
            agas.register_at(obj, gid, home)
            self.agas_creates += 1
        self._broadcast_create(origin, gid, home, data, exclude=origin)

    # Local draining --------------------------------------------------------
    def _drain_local(self) -> None:
        """Run every runnable task in this process."""
        runtime = self.runtime
        while True:
            pool, worker, hint = runtime._next_locality()
            if pool is None:
                break
            pool.dispatch(worker, hint)
            self.maybe_service()

    # Observability ---------------------------------------------------------
    def counters(self) -> dict[str, float]:
        return {
            "parcels_forwarded": float(self.parcels_forwarded),
            "parcels_received": float(self.parcels_received),
            "parcels_relayed": float(self.parcels_relayed),
            "replies_sent": float(self.replies_sent),
            "replies_received": float(self.replies_received),
            "messages_sent": float(self.messages_sent),
            "wire_bytes_sent": float(self.wire_bytes_sent),
            "agas_creates": float(self.agas_creates),
            "sync_rounds": float(self.sync_rounds),
        }


class MultiprocessBackend(_PipeBackend):
    """Driver side: owns the worker processes and relays their traffic."""

    my_id = 0

    def __init__(self) -> None:
        super().__init__()
        self._channels: dict[int, _Channel] = {}
        self._procs: dict[int, Any] = {}
        self._worker_stats: dict[int, dict[str, Any]] = {}
        self._stopped_workers: set[int] = set()
        self._worker_busy: dict[int, bool] = {}
        self._acks: dict[int, set[int]] = {}
        self._sync_seq = 0

    # Lifecycle -------------------------------------------------------------
    def start(self) -> None:
        import multiprocessing as mp

        runtime = self.runtime
        mp_ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        values = dict(runtime.config)
        self.processes = runtime.n_localities
        for worker_id in range(1, runtime.n_localities):
            parent, child = socket.socketpair()
            proc = mp_ctx.Process(
                target=_worker_entry,
                args=(
                    child,
                    worker_id,
                    runtime.n_localities,
                    runtime.workers_per_locality,
                    values,
                ),
                name=f"repro-locality-{worker_id}",
                daemon=True,
            )
            proc.start()
            child.close()
            self._channels[worker_id] = _Channel(parent)
            self._procs[worker_id] = proc
        # A registration made before the workers existed reached none of
        # them: mirror it now, ahead of any message that names its GID.
        agas = runtime.agas
        for home in range(runtime.n_localities):
            for gid in agas.gids_homed_at(home):
                data = serialize(agas.resolve(gid)[1])
                self._broadcast_create(0, gid, home, data, exclude=0)

    def quiesce(self) -> None:
        """Termination detection: repeat drain+sync rounds until a full
        round passes with every process idle and no traffic moved."""
        if not self._channels:
            return
        for _ in range(_SYNC_ROUNDS):
            self._drain_local()
            round_activity = self._activity
            self._activity = False
            self._sync_seq += 1
            seq = self._sync_seq
            self._acks[seq] = set()
            self._worker_busy = {}
            for worker_id in self._channels:
                self._send(worker_id, ("sync", seq))
            while len(self._acks[seq]) < len(self._channels) - len(
                self._stopped_workers
            ):
                if not self.service(block=True):
                    raise RuntimeStateError(
                        f"multiprocess shutdown: sync round {seq} timed out "
                        f"after {_STALL_TIMEOUT_S:g}s awaiting worker acks"
                    )
                self._drain_local()
            del self._acks[seq]
            self.sync_rounds += 1
            busy = (
                round_activity
                or self._activity
                or bool(self._tokens)
                or any(self._worker_busy.values())
                or any(loc.pool.pending() for loc in self.runtime.localities)
            )
            if not busy:
                return
        warnings.warn(
            f"multiprocess shutdown: traffic still moving after "
            f"{_SYNC_ROUNDS} sync rounds; stopping anyway",
            RuntimeWarning,
            stacklevel=2,
        )

    def stop(self) -> None:
        if self._stopping:
            return
        self._stopping = True
        try:
            for worker_id in self._channels:
                if worker_id not in self._stopped_workers:
                    self._send(worker_id, ("stop",))
            while len(self._stopped_workers) < len(self._channels):
                if not self.service(block=True):
                    break  # timed out; join/terminate below
        finally:
            self._reap(5.0)

    def abort(self) -> None:
        self._stopping = True
        for channel in self._channels.values():
            send_message(channel, ("abort",))
        self._reap(1.0)

    def _reap(self, timeout: float) -> None:
        for proc in self._procs.values():
            proc.join(timeout=timeout)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=1.0)
        for channel in self._channels.values():
            channel.sock.close()  # its worker is gone: nothing queued matters
        # No reply can come now: a caller still waiting gets an error,
        # not a future that is silently never ready.
        for seq, promise in self._tokens.items():
            promise.set_exception(
                RuntimeStateError(
                    f"multiprocess shutdown: the reply to remote call {seq} "
                    "never arrived"
                )
            )
        self._tokens.clear()

    # Transport -------------------------------------------------------------
    def _send(self, destination: int, message: tuple) -> None:
        if destination == self.my_id:
            self._dispatch(message)
            return
        self.messages_sent += 1
        self.wire_bytes_sent += send_message(self._channels[destination], message)

    def service(self, block: bool) -> bool:
        """Receive and dispatch pending messages (waiting up to the stall
        timeout when ``block``); True if any arrived."""
        channels = [
            channel
            for worker_id, channel in self._channels.items()
            if worker_id not in self._stopped_workers
        ]
        if not channels:
            return False
        ready = _wait(channels, _STALL_TIMEOUT_S if block else 0)
        for channel in ready:
            try:
                for data in channel.frames():
                    self._dispatch(decode_message(data))
            except EOFError:
                self._mark_dead(channel)
        return bool(ready)

    def _mark_dead(self, channel: _Channel) -> None:
        for worker_id, c in self._channels.items():
            if c is channel and worker_id not in self._stopped_workers:
                self._stopped_workers.add(worker_id)
                if not self._stopping:
                    raise RuntimeStateError(
                        f"worker process for locality {worker_id} exited "
                        "unexpectedly (socket closed)"
                    )

    def _broadcast_create(
        self, origin: int, gid: "Gid", home: int, data: bytes, exclude: int
    ) -> None:
        for worker_id in self._channels:
            if worker_id != exclude and worker_id not in self._stopped_workers:
                self._send(worker_id, ("create", origin, gid, home, data))

    def _dispatch_control(self, message: tuple) -> None:
        kind = message[0]
        if kind == "sync-ack":
            _, seq, worker_id, busy = message
            if seq in self._acks:
                self._acks[seq].add(worker_id)
            self._worker_busy[worker_id] = busy
        elif kind == "stopped":
            _, worker_id, stats = message
            self._worker_stats[worker_id] = stats
            self._stopped_workers.add(worker_id)
        elif kind == "error":
            _, worker_id, text = message
            self._stopped_workers.add(worker_id)
            raise RuntimeStateError(
                f"worker process for locality {worker_id} died:\n{text}"
            )
        else:
            super()._dispatch_control(message)

    # Observability ---------------------------------------------------------
    def counters(self) -> dict[str, float]:
        out = super().counters()
        out["processes"] = float(getattr(self, "processes", 1))
        out["remote_tasks_executed"] = float(
            sum(s.get("tasks_executed", 0) for s in self._worker_stats.values())
        )
        out["remote_parcels_sent"] = float(
            sum(s.get("parcels_sent", 0) for s in self._worker_stats.values())
        )
        return out


class _WorkerBackend(_PipeBackend):
    """Worker side: a single channel to the driver, which relays everything."""

    def __init__(self, channel: _Channel, worker_id: int) -> None:
        super().__init__()
        self._channel = channel
        self.my_id = worker_id
        self._sent_stopped = False
        #: The sync round read but not answered yet (see :meth:`serve`).
        self._sync_due: int | None = None

    def serve(self) -> None:
        """The worker main loop: drain local work, answer the sync round
        read meanwhile, then block for more.

        A round is answered only after a drain.  Answered as it was read,
        it let a worker whose reads never found the socket empty -- the
        driver sends the next round as soon as an ack lands -- ack "busy"
        round after round without ever running the work it held, until
        the driver gave up and a reply was lost.
        """
        while not self._stopping:
            self._drain_local()
            if self._sync_due is not None:
                busy = self._busy()
                self._activity = False
                self._send(0, ("sync-ack", self._sync_due, self.my_id, busy))
                self._sync_due = None
            self.service(block=True)

    # The driver starts the job, detects its termination and aborts it.
    def start(self) -> None:
        pass

    def quiesce(self) -> None:
        pass

    def abort(self) -> None:
        pass

    def stop(self) -> None:
        if self._sent_stopped:
            return
        self._sent_stopped = True
        self._send(0, ("stopped", self.my_id, self._stats()))
        self._stopping = True

    def _stats(self) -> dict[str, Any]:
        runtime = self.runtime
        port = runtime.parcelport
        stats = {
            "locality": self.my_id,
            "tasks_executed": sum(
                loc.pool.tasks_executed for loc in runtime.localities
            ),
            "parcels_sent": port.parcels_sent,
            "parcels_delivered": port.parcels_delivered,
            "bytes_sent": port.bytes_sent,
            "pid": os.getpid(),
        }
        stats.update(self.counters())
        return stats

    # Transport -------------------------------------------------------------
    def _send(self, destination: int, message: tuple) -> None:
        # Everything funnels through the driver, which relays by the
        # destination embedded in the message.
        self.messages_sent += 1
        self.wire_bytes_sent += send_message(self._channel, message)

    def service(self, block: bool) -> bool:
        channel = self._channel
        if not _wait([channel], _STALL_TIMEOUT_S if block else 0):
            return False
        try:
            for data in channel.frames():
                self._dispatch(decode_message(data))
        except EOFError:
            self._stopping = True
            raise SystemExit(0) from None
        return True

    def _busy(self) -> bool:
        # Asked right after a drain, so no task is pending here.  Output
        # still queued needs no term: the ack is written behind it.
        return self._activity or bool(self._tokens)

    def _broadcast_create(
        self, origin: int, gid: "Gid", home: int, data: bytes, exclude: int
    ) -> None:
        if origin == self.my_id:  # our registration: let the driver fan out
            self._send(0, ("create", origin, gid, home, data))
        # otherwise the driver already broadcast it; nothing to forward.

    def _dispatch_control(self, message: tuple) -> None:
        kind = message[0]
        if kind == "sync":
            self._sync_due = message[1]
        elif kind == "stop":
            self._stopping = True
        elif kind == "abort":
            self._stopping = True
            self._channel.out.clear()  # exit at once: nothing more is written
            raise SystemExit(0)
        else:
            super()._dispatch_control(message)


def _worker_entry(
    sock: socket.socket,
    worker_id: int,
    n_localities: int,
    workers_per_locality: int,
    config_values: dict[str, Any],
) -> None:
    """Worker process main: build a fresh Runtime and serve the socket.

    Module-level (spawn-picklable) and defensive about forked state: the
    parent's context stack and probes must not leak into this process.
    """
    import traceback

    from ...config import Config
    from .. import context as ctx
    from .. import instrument
    from ..runtime import Runtime

    ctx._stack.clear()
    instrument.reset()
    channel = _Channel(sock)
    try:
        config = Config.from_mapping(
            {**config_values, "runtime.quiescence": "ignore"}
        )
        backend = _WorkerBackend(channel, worker_id)
        runtime = Runtime(
            n_localities=n_localities,
            workers_per_locality=workers_per_locality,
            config=config,
            _backend=backend,
        )
        with runtime:
            backend.serve()
    except SystemExit:
        pass
    except BaseException:
        send_message(channel, ("error", worker_id, traceback.format_exc()))
    finally:
        channel.close()
