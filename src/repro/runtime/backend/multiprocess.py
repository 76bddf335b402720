"""The multiprocess backend: one OS process per locality, real cores.

Topology is hub-and-spoke: the driver process (locality 0, the one that
constructed the user's :class:`Runtime`) owns a duplex pipe to each
worker process and relays worker-to-worker traffic.  Every process runs
a full Runtime over the *same* locality count -- its own locality is the
one it executes; parcels routed anywhere else are intercepted at the
router and carried over the pipes in the existing encode-once wire
format (:mod:`repro.runtime.backend.wire`).

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

AGAS stays coherent by construction: every registration is mirrored to
every process (the home process receives the pickled component, others a
placeholder binding), with a synchronous resolve broker through the
driver as the fallback for a GID a process has never heard of.
"""
# This file IS the OS-process transport: the one place in the tree where
# real OS concurrency primitives are the point, not a bypass.
# repro-lint: disable-file=PX201

from __future__ import annotations

import os
import warnings
from typing import TYPE_CHECKING, Any

from ...errors import RuntimeStateError
from ..futures import Promise
from ..parcel.parcel import Parcel
from ..parcel.serialization import serialize
from .base import ExecutionBackend
from .wire import decode_message, parcel_entry, send_message

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.connection import Connection

    from ..agas.component import Component
    from ..agas.gid import Gid
    from ..runtime import Runtime

__all__ = ["MultiprocessBackend"]

#: Outbound parcel entries buffered before an automatic flush.
_OUTBOX_CAP = 64
#: Progress-loop steps between opportunistic transport polls.
_SERVICE_MASK = 0x3F
#: Seconds a process blocks on its transport before diagnosing a stall.
_STALL_TIMEOUT_S = 60.0
#: Shutdown termination-detection round cap.
_SYNC_ROUNDS = 64


class _PipeBackend(ExecutionBackend):
    """Shared send/dispatch machinery for the driver and worker sides."""

    distributed = True

    def __init__(self) -> None:
        # Per-destination-locality parcel entries awaiting a flush (many
        # parcels, one framed message).
        self._outbox: dict[int, list[tuple]] = {}
        self._outbox_size = 0
        # seq -> reply Promise for tokened sends originated here.
        self._tokens: dict[int, Promise] = {}
        self._token_seq = 0
        self._resolve_seq = 0
        self._resolved: dict[int, int] = {}
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
        self.agas_resolves = 0
        self.sync_rounds = 0

    # Transport primitives (side-specific) ---------------------------------
    def _send(self, destination: int, message: tuple) -> None:
        raise NotImplementedError

    def _service(self, block: bool) -> bool:
        """Receive and dispatch pending messages; True if any arrived."""
        raise NotImplementedError

    # Send path -------------------------------------------------------------
    def forward_parcel(self, parcel: Parcel, destination: int) -> None:
        token = None
        promise = parcel.reply_promise
        if promise is not None and not parcel.fire_and_forget:
            self._token_seq += 1
            token = (self.my_id, self._token_seq)
            self._tokens[self._token_seq] = promise
        self._outbox.setdefault(destination, []).append(
            parcel_entry(parcel, destination, token)
        )
        self._outbox_size += 1
        self.parcels_forwarded += 1
        if self._outbox_size >= _OUTBOX_CAP:
            self.flush()

    def flush(self) -> None:
        if not self._outbox_size:
            return
        outbox, self._outbox = self._outbox, {}
        self._outbox_size = 0
        for destination, entries in outbox.items():
            self._send(destination, ("parcels", entries))
        self._activity = True

    def maybe_service(self) -> bool:
        self._tick += 1
        if self._tick & _SERVICE_MASK:
            return False
        self.flush()
        return self._service(block=False)

    def poll(self) -> bool:
        self.flush()
        return self._service(block=False)

    def on_stall(self) -> bool:
        self.flush()
        return self._service(block=True)

    # Inbound dispatch ------------------------------------------------------
    def _dispatch(self, message: tuple) -> None:
        kind = message[0]
        if kind == "parcels":
            for entry in message[1]:
                self._route_entry(entry)
        elif kind == "reply":
            _, origin, seq, ok, data = message
            self._route_reply(origin, seq, ok, data)
        elif kind == "create":
            _, origin, gid, home, data = message
            self._apply_create(origin, gid, home, data)
        elif kind == "resolve":
            _, req_id, gid, origin = message
            self._answer_resolve(req_id, gid, origin)
        elif kind == "resolved":
            _, req_id, _gid, home = message
            self._resolved[req_id] = home
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
            self._outbox.setdefault(destination, []).append(entry)
            self._outbox_size += 1
            self.parcels_relayed += 1

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

    def _broadcast_create(
        self, origin: int, gid: "Gid", home: int, data: bytes, exclude: int
    ) -> None:
        raise NotImplementedError

    def _answer_resolve(self, req_id: int, gid: "Gid", origin: int) -> None:
        agas = self.runtime.agas
        home = agas.home_of(gid) if gid in agas else -1
        self._send(origin, ("resolved", req_id, gid, home))

    def _broker_resolve(self, gid: "Gid") -> tuple[int, Any] | None:
        """AGAS fallback: ask the driver where an unknown GID lives.

        Blocks (dispatching other traffic reentrantly) until the answer
        arrives; returns ``(home, placeholder)`` or None when the driver
        does not know the GID either.
        """
        if self._stopping:
            return None
        self._resolve_seq += 1
        req_id = self._resolve_seq
        self._send(0, ("resolve", req_id, gid, self.my_id))
        while req_id not in self._resolved:
            if not self._service(block=True):
                return None
        home = self._resolved.pop(req_id)
        if home < 0:
            return None
        self.agas_resolves += 1
        return home, None

    # Local draining --------------------------------------------------------
    def _drain_local(self) -> None:
        """Run every runnable task in this process, then flush."""
        runtime = self.runtime
        while True:
            pool, worker, hint = runtime._next_locality()
            if pool is None:
                break
            pool.dispatch(worker, hint)
            self.maybe_service()
        self.flush()

    def _busy(self) -> bool:
        return (
            self._activity
            or bool(self._tokens)
            or bool(self._outbox_size)
            or any(loc.pool.pending() for loc in self.runtime.localities)
        )

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
            "agas_resolves": float(self.agas_resolves),
            "sync_rounds": float(self.sync_rounds),
        }


class MultiprocessBackend(_PipeBackend):
    """Driver side: owns the worker processes and relays their traffic."""

    name = "multiprocess"
    my_id = 0

    def __init__(self) -> None:
        super().__init__()
        self._conns: dict[int, "Connection"] = {}
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
            parent, child = mp_ctx.Pipe(duplex=True)
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
            self._conns[worker_id] = parent
            self._procs[worker_id] = proc

    def quiesce(self) -> None:
        """Termination detection: repeat drain+sync rounds until a full
        round passes with every process idle and no traffic moved."""
        if not self._conns:
            return
        for _ in range(_SYNC_ROUNDS):
            self._drain_local()
            round_activity = self._activity
            self._activity = False
            self._sync_seq += 1
            seq = self._sync_seq
            self._acks[seq] = set()
            self._worker_busy = {}
            for worker_id in self._conns:
                self._send(worker_id, ("sync", seq))
            while len(self._acks[seq]) < len(self._conns) - len(
                self._stopped_workers
            ):
                if not self._service(block=True):
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
            for worker_id, conn in self._conns.items():
                if worker_id not in self._stopped_workers:
                    try:
                        self.messages_sent += 1
                        self.wire_bytes_sent += send_message(conn, ("stop",))
                    except (BrokenPipeError, OSError):
                        self._stopped_workers.add(worker_id)
            while len(self._stopped_workers) < len(self._conns):
                if not self._service(block=True):
                    break  # timed out; join/terminate below
        finally:
            for proc in self._procs.values():
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()
                    proc.join(timeout=1.0)
            for conn in self._conns.values():
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass

    def abort(self) -> None:
        self._stopping = True
        for conn in self._conns.values():
            try:
                send_message(conn, ("abort",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs.values():
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    # Transport -------------------------------------------------------------
    def _send(self, destination: int, message: tuple) -> None:
        if destination == self.my_id:
            self._dispatch(message)
            return
        conn = self._conns[destination]
        self.messages_sent += 1
        self.wire_bytes_sent += send_message(conn, message)

    def _service(self, block: bool) -> bool:
        from multiprocessing.connection import wait as conn_wait

        conns = [
            conn
            for worker_id, conn in self._conns.items()
            if worker_id not in self._stopped_workers
        ]
        if not conns:
            return False
        ready = conn_wait(conns, _STALL_TIMEOUT_S if block else 0)
        if not ready:
            return False
        for conn in ready:
            while True:
                try:
                    data = conn.recv_bytes()
                except (EOFError, OSError):
                    self._mark_dead(conn)
                    break
                self._dispatch(decode_message(data))
                if not conn.poll(0):
                    break
        self.flush()
        return True

    def _mark_dead(self, conn: "Connection") -> None:
        for worker_id, c in self._conns.items():
            if c is conn and worker_id not in self._stopped_workers:
                self._stopped_workers.add(worker_id)
                if not self._stopping:
                    raise RuntimeStateError(
                        f"worker process for locality {worker_id} exited "
                        "unexpectedly (pipe closed)"
                    )

    def _broadcast_create(
        self, origin: int, gid: "Gid", home: int, data: bytes, exclude: int
    ) -> None:
        for worker_id in self._conns:
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
    def worker_stats(self) -> dict[int, dict[str, Any]]:
        return dict(self._worker_stats)

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
    """Worker side: a single pipe to the driver, which relays everything."""

    name = "multiprocess"

    def __init__(self, conn: "Connection", worker_id: int) -> None:
        super().__init__()
        self._conn = conn
        self.my_id = worker_id
        self._sent_stopped = False

    def attach(self, runtime: "Runtime") -> None:
        super().attach(runtime)
        runtime.agas.broker = self._broker_resolve

    def serve(self) -> None:
        """The worker main loop: drain local work, then block for more."""
        while not self._stopping:
            self._drain_local()
            self._service(block=True)

    def stop(self) -> None:
        if self._sent_stopped:
            return
        self._sent_stopped = True
        try:
            self._send(0, ("stopped", self.my_id, self._stats()))
        except (BrokenPipeError, OSError):  # driver already gone
            pass
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
        self.wire_bytes_sent += send_message(self._conn, message)

    def _service(self, block: bool) -> bool:
        conn = self._conn
        if not conn.poll(_STALL_TIMEOUT_S if block else 0):
            return False
        dispatched = False
        while conn.poll(0) or not dispatched:
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                self._stopping = True
                raise SystemExit(0) from None
            self._dispatch(decode_message(data))
            dispatched = True
        self.flush()
        return True

    def _broadcast_create(
        self, origin: int, gid: "Gid", home: int, data: bytes, exclude: int
    ) -> None:
        if origin == self.my_id:  # our registration: let the driver fan out
            self._send(0, ("create", origin, gid, home, data))
        # otherwise the driver already broadcast it; nothing to forward.

    def _dispatch_control(self, message: tuple) -> None:
        kind = message[0]
        if kind == "sync":
            self.flush()
            busy = self._busy()
            self._activity = False
            self._send(0, ("sync-ack", message[1], self.my_id, busy))
        elif kind == "stop":
            self._stopping = True
        elif kind == "abort":
            self._stopping = True
            raise SystemExit(0)
        else:
            super()._dispatch_control(message)


def _worker_entry(
    conn: "Connection",
    worker_id: int,
    n_localities: int,
    workers_per_locality: int,
    config_values: dict[str, Any],
) -> None:
    """Worker process main: build a fresh Runtime and serve the pipe.

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
    try:
        config = Config.from_mapping(
            {**config_values, "runtime.quiescence": "ignore"}
        )
        backend = _WorkerBackend(conn, worker_id)
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
        try:
            send_message(conn, ("error", worker_id, traceback.format_exc()))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass
