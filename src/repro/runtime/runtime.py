"""The runtime: boots localities, routes parcels, drives progress.

A :class:`Runtime` stands for one job: ``n_localities`` virtual nodes,
each with a thread pool of one worker per (modelled) physical core, a
shared AGAS instance, and a parcelport whose delays come from the
machine model's interconnect.  Use it as a context manager::

    with Runtime(machine="xeon-e5-2660v3", n_localities=4) as rt:
        result = rt.run(main)

``rt.run`` executes ``main`` as the first HPX-thread on locality 0 and
cooperatively drives *all* localities until the result is ready --
including parcels that bounce work between nodes.
"""

from __future__ import annotations

import sys
import warnings
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..config import Config, default_config
from ..errors import (
    ConfigError,
    DeadlockError,
    ParcelDeadLetterError,
    QuiescenceWarning,
    RuntimeStateError,
)
from ..hardware.registry import MachineModel, machine as machine_lookup
from . import context as ctx
from . import instrument
from .context import _stack as _context_stack
from .actions import get_action
from .agas.component import Component
from .backend import refuse_off_virtual_clock
from .agas.gid import Gid
from .agas.service import AgasService
from .futures import Future, Promise
from .locality import Locality
from .parcel.parcel import Parcel
from .parcel.parcelport import (
    LoopbackParcelport,
    NetworkParcelport,
    Parcelport,
    RetryPolicy,
)
from .parcel.serialization import deserialize, serialize
from .threads.pool import ThreadPool

if TYPE_CHECKING:  # pragma: no cover
    from ..resilience.faults import FaultInjector
    from .backend.multiprocess import _PipeBackend
    from .agas.service import _Entry

__all__ = ["Runtime"]

_INF = float("inf")

#: Dead-letter queue bound, oldest evicted first: a long outage window
#: must not grow the queue without limit, admission control or not.
_DLQ_MAX = 1024

#: Victims a work-stealing worker probes before idling.
_STEAL_ATTEMPTS = 4


class Runtime:
    """One ParalleX job over one or more virtual localities."""

    def __init__(
        self,
        machine: str | MachineModel | None = None,
        n_localities: int = 1,
        workers_per_locality: int | None = None,
        config: Config | None = None,
        fault_injector: "FaultInjector | None" = None,
        _backend: "_PipeBackend | None" = None,
    ) -> None:
        if n_localities < 1:
            raise RuntimeStateError("need at least one locality")
        self.config = config or default_config()
        self.fault_injector = fault_injector
        self._delivered_parcels: set[int] = set()
        #: Localities declared permanently dead (crash recovery).  Their
        #: queued work has been discarded and parcels routed to them are
        #: reported lost; AGAS re-homing moves their components away.
        self.decommissioned: set[int] = set()
        #: This job's demanded futures that have not fired yet, state ->
        #: label (filled by ``futures.demand``, emptied by fulfilment).
        #: What is left at quiescence are its lost continuations.
        self.demanded: dict[Any, str] = {}
        # Checkpoint/restore statistics (perfcounter sources, updated by
        # repro.resilience.checkpoint.CheckpointStore).
        self.checkpoints_saved = 0
        self.checkpoints_restored = 0
        self.checkpoint_fallbacks = 0
        self.checkpoint_corrupt_skipped = 0
        self.checkpoint_bytes_saved = 0
        self.checkpoint_save_time_s = 0.0
        self.checkpoint_restore_time_s = 0.0
        if isinstance(machine, str):
            machine = machine_lookup(machine)
        self.machine: Optional[MachineModel] = machine
        if workers_per_locality is None:
            workers_per_locality = (
                machine.spec.cores_per_node if machine is not None else 4
            )
        if workers_per_locality < 1:
            raise RuntimeStateError("need at least one worker per locality")
        self.n_localities = n_localities
        self.workers_per_locality = workers_per_locality
        self.agas = AgasService(n_localities)

        # Where the other localities live: None on the virtual clock,
        # else this process's end of the multiprocess backend (a worker
        # process passes its connected end as the private ``_backend``).
        # Every path branches on this one reference.
        if _backend is None and self.config.get_str("runtime.backend") == "multiprocess":
            from .backend.multiprocess import MultiprocessBackend

            _backend = MultiprocessBackend()
        self.backend: "_PipeBackend | None" = _backend
        if _backend is not None:
            _backend.runtime = self
            self._check_distributed_config(fault_injector)

        scheduler = self.config.get_str("threads.scheduler")
        self.localities: list[Locality] = []
        for i in range(n_localities):
            core_ids = None
            if machine is not None:  # workers are pinned (hwloc-bind analogue)
                cpuset = machine.topology.pin_compact(
                    min(workers_per_locality, machine.spec.cores_per_node)
                )
                core_ids = list(cpuset)[:workers_per_locality]
                if len(core_ids) < workers_per_locality:
                    raise RuntimeStateError(
                        f"{machine.name} has only {len(core_ids)} physical cores; "
                        f"cannot pin {workers_per_locality} workers"
                    )
            pool = ThreadPool(
                workers_per_locality,
                scheduler=scheduler,
                core_ids=core_ids,
                name=f"locality-{i}",
                steal_attempts=_STEAL_ATTEMPTS,
            )
            self.localities.append(Locality(i, pool, self))

        # Parcel transport: a modelled network when we have a machine and
        # more than one node, otherwise loopback.
        self.parcelport: Parcelport
        if machine is not None and n_localities > 1:
            port = NetworkParcelport(
                machine.interconnect,
                n_localities,
                overlap=machine.calibration.network_overlap,
            )
            port.install_resolver(self._destination_of)
            self.parcelport = port
        else:
            self.parcelport = LoopbackParcelport()
        self.parcelport.install_router(self._route_parcel)
        # The port type decides how a parcel body travels, resolved once:
        # same-process loopback carries the encoded body by reference, a
        # modelled network (or a process boundary) decodes the wire bytes.
        self._network_port = isinstance(self.parcelport, NetworkParcelport)
        if fault_injector is not None:
            self.parcelport.fault_injector = fault_injector
            self.parcelport.retry_policy = self._retry_policy_from_config()
            self.parcelport.install_retry_scheduler(self._schedule_parcel_retry)
        self.parcelport.dlq_max = _DLQ_MAX
        self._overload = None
        if self.config.get_bool("overload.enabled"):
            from ..resilience.overload import OverloadController

            self._overload = OverloadController(self)
            self.parcelport.overload = self._overload
        self._started = False

    def _check_distributed_config(self, fault_injector: "FaultInjector | None") -> None:
        """Reject features whose semantics are defined on the virtual
        clock (``backend.VIRTUAL_CLOCK_ONLY``), and a process count the
        multiprocess backend cannot honour."""
        if fault_injector is not None:
            refuse_off_virtual_clock("fault injection")
        if self.config.get_bool("overload.enabled"):
            refuse_off_virtual_clock("overload admission control")
        if self.machine is not None:
            refuse_off_virtual_clock("modelled machine interconnects")
        processes = self.config.get_int("runtime.processes")
        if processes not in (0, self.n_localities):
            raise ConfigError(
                f"runtime.processes={processes} with n_localities="
                f"{self.n_localities}: the multiprocess backend runs one "
                "process per locality (use 0, or make them equal)"
            )

    def _retry_policy_from_config(self) -> RetryPolicy:
        """Reliable-delivery knobs, with the base ack-timeout derived from
        the network's round-trip estimate and the backoff capped at 64x."""
        if isinstance(self.parcelport, NetworkParcelport):
            base = self.parcelport.interconnect.rto_estimate(256, self.n_localities)
        else:
            base = 1e-5
        return RetryPolicy(
            enabled=self.config.get_bool("parcel.retry"),
            max_attempts=self.config.get_int("parcel.retry_max_attempts"),
            base_timeout_s=base,
            max_timeout_s=64.0 * base,
            jitter=self.config.get_float("parcel.retry_jitter"),
            seed=self.config.get_int("seed"),
        )

    # Lifecycle --------------------------------------------------------------
    def start(self) -> "Runtime":
        """Boot: push the base execution context (locality 0)."""
        if self._started:
            raise RuntimeStateError("runtime already started")
        # Futurized chains recurse through cooperative helping; give them
        # headroom.
        if sys.getrecursionlimit() < 20000:
            sys.setrecursionlimit(20000)
        # Bring up the transport (fork/spawn the workers) before any
        # execution context exists, so child processes never inherit a
        # live frame stack.
        if self.backend is not None:
            self.backend.start()
        ctx.push(
            ctx.ExecutionContext(
                runtime=self,
                locality=self.localities[0],
                pool=self.localities[0].pool,
            )
        )
        self._started = True
        return self

    def stop(self) -> None:
        """Shut down: drain remaining work and pop the base context.

        The base context is popped even when the drain raises (e.g. the
        quiescence check found lost continuations) -- a failed shutdown
        must not wedge the global context stack.
        """
        if not self._started:
            raise RuntimeStateError("runtime is not started")
        try:
            if self.backend is not None:
                # Cross-process traffic still in flight must land (and
                # execute) before the local drain can mean anything.
                self.backend.quiesce()
            self.progress_all()
        finally:
            try:
                if self.backend is not None:
                    self.backend.stop()
            finally:
                ctx.pop()
                self._started = False

    def __enter__(self) -> "Runtime":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._started:
            if exc_type is None:
                self.stop()
            else:  # do not mask the user's exception with drain errors
                if self.backend is not None:
                    self.backend.abort()
                ctx.pop()
                self._started = False

    # Queries ------------------------------------------------------------------
    def here(self) -> Locality:
        """The locality of the calling context."""
        return ctx.here()

    def find_all_localities(self) -> list[Locality]:
        return list(self.localities)

    def locality(self, locality_id: int) -> Locality:
        if not 0 <= locality_id < self.n_localities:
            raise RuntimeStateError(
                f"locality {locality_id} out of range [0, {self.n_localities})"
            )
        return self.localities[locality_id]

    @property
    def makespan(self) -> float:
        """Virtual completion time across all localities."""
        return max(loc.pool.makespan for loc in self.localities)

    @property
    def distributed(self) -> bool:
        """True when other localities live in other OS processes.

        Application drivers branch on this to route state access through
        parcels (invoke) instead of touching component objects directly
        -- direct references are stale copies in distributed mode.
        """
        return self.backend is not None

    # Progress engine -------------------------------------------------------------
    def _next_locality(self) -> tuple[ThreadPool | None, Any, float]:
        """The one scan of a dispatch: ``(pool, worker, hint)`` of the
        locality whose queued work can start earliest -- its pool, that
        pool's earliest worker and the (outage-deferred) start time --
        or ``(None, None, inf)`` when nothing is queued anywhere.

        Callers hand ``worker`` and ``hint`` straight to
        ``pool.dispatch``.
        """
        best_pool: ThreadPool | None = None
        best_worker = None
        best_hint = _INF
        injector = self.fault_injector
        decommissioned = self.decommissioned
        for loc in self.localities:
            if decommissioned and loc.locality_id in decommissioned:
                continue
            pool = loc.pool
            if not pool.scheduler.size:
                continue
            worker = pool.earliest_worker()
            hint = worker.available_at
            if injector is not None:
                hint = injector.defer_until_up(loc.locality_id, hint)
            if hint < best_hint:
                best_hint = hint
                best_pool = pool
                best_worker = worker
        return best_pool, best_worker, best_hint

    def _raise_stalled(self) -> None:
        probe = instrument.probe
        if probe is not None:
            # A deadlock detector raises its own richer error (rendered
            # wait cycle) from this hook; fall through otherwise.
            probe.stalled(self)
        controller = self.parcelport.overload
        if controller is not None and controller.stalled_count():
            # Credit-stalled parcels with no runnable work to return a
            # credit can never proceed: shed them so the stall surfaces
            # as dead-lettered parcels instead of a bare deadlock.
            controller.shed_all_stalled("job stalled while awaiting send credits")
        dead = self.parcelport.dead_letters
        if dead:
            shown = ", ".join(
                f"#{parcel.parcel_id} ({reason})" for parcel, reason in dead[:5]
            )
            raise ParcelDeadLetterError(
                f"job stalled with {len(dead)} undeliverable parcel(s) in the "
                f"dead-letter queue: {shown}"
            )
        raise DeadlockError(
            "no runnable work on any locality while the awaited "
            "condition is unsatisfied"
        )

    def progress_until(self, predicate: Callable[[], bool]) -> None:
        """Run queued tasks anywhere in the job until ``predicate()``.

        Pools are stepped in earliest-virtual-start order, which keeps
        cross-locality timing approximately causal.  A stall with parcels
        in the dead-letter queue raises
        :class:`~repro.errors.ParcelDeadLetterError`; a plain stall is a
        :class:`~repro.errors.DeadlockError`.
        """
        remote = self.backend
        while not predicate():
            # Distributed mode: poll the transport opportunistically (the
            # backend rate-limits internally) so relays and replies land
            # while local work is still running.
            if remote is not None and remote.maybe_service():
                continue
            pool, worker, hint = self._next_locality()
            if pool is None:
                # Nothing runnable here, but the awaited value may be on
                # its way from another process: block on the transport
                # before diagnosing a stall.
                if remote is not None and remote.service(block=True):
                    continue
                self._raise_stalled()
            pool.dispatch(worker, hint)

    def progress_before(self, predicate: Callable[[], bool], deadline: float) -> bool:
        """Like :meth:`progress_until`, but only step work that can start
        at or before virtual ``deadline``; returns the final predicate
        value instead of raising on a stall (timeout machinery)."""
        remote = self.backend
        while not predicate():
            if remote is not None and remote.maybe_service():
                continue
            pool, worker, hint = self._next_locality()
            if pool is None or hint > deadline:
                # A non-blocking transport poll (timed waits must not
                # park on the socket) may still unblock the predicate.
                if pool is None and remote is not None and remote.service(block=False):
                    continue
                return predicate()
            pool.dispatch(worker, hint)
        return True

    def progress_all(self) -> float:
        """Drain every pool; returns the job makespan.

        After the drain, checks for the *silent hang*: demanded futures
        (combinator/continuation targets, channel reads) that can never
        become ready now that no work remains.  Per the
        ``runtime.quiescence`` config this warns (default,
        :class:`~repro.errors.QuiescenceWarning`), raises
        :class:`~repro.errors.DeadlockError`, or is skipped
        (``"ignore"``).  An attached deadlock detector raises its own
        richer error with the rendered wait graph.
        """

        injector = self.fault_injector

        def quiescent() -> bool:
            for loc in self.localities:
                if loc.locality_id in self.decommissioned:
                    continue
                if not loc.pool.pending():
                    continue
                if (
                    injector is not None
                    and injector.defer_until_up(
                        loc.locality_id, loc.pool.next_start_hint()
                    )
                    == _INF
                ):
                    # A permanently-failed locality that was never
                    # decommissioned (the crash landed after its useful
                    # work): its queued tasks are deferred to infinity
                    # and can never run.  The drain must treat it like a
                    # decommissioned node, not wait for it -- the same
                    # rule _next_locality already applies.
                    continue
                return False
            return True

        if not quiescent():
            self.progress_until(quiescent)
        self._check_quiescence()
        return self.makespan

    def _check_quiescence(self) -> None:
        probe = instrument.probe
        if probe is not None:
            probe.quiesced(self)
        mode = self.config.get_str("runtime.quiescence")
        if mode == "ignore":
            return
        pending = self.lost_continuations()
        if not pending:
            return
        shown = ", ".join(pending[:8])
        if len(pending) > 8:
            shown += f", ... ({len(pending) - 8} more)"
        message = (
            f"job quiesced with {len(pending)} demanded future(s) that can "
            f"never become ready: {shown} -- a continuation chain was lost "
            f"(unfired dataflow/when_* target or abandoned channel read); "
            f"attach repro.analysis for the full wait graph"
        )
        if mode == "raise":
            raise DeadlockError(message)
        warnings.warn(message, QuiescenceWarning, stacklevel=3)

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` as the main HPX-thread on locality 0 and wait."""
        if not self._started:
            raise RuntimeStateError("runtime is not started; use 'with Runtime(...)'")
        future = self.localities[0].pool.submit(
            fn, *args, kwargs=kwargs or None, description="hpx_main"
        )
        self.progress_until(future.is_ready)
        return future.get()

    # Components -------------------------------------------------------------------
    def new_component(self, component: Component, locality_id: int = 0) -> Gid:
        """Register a component on a locality; returns its GID."""
        if not isinstance(component, Component):
            raise RuntimeStateError("new_component needs a Component instance")
        gid = self.agas.register(component, home=locality_id)
        component.bind(gid, locality_id)
        if self.backend is not None:
            # Mirror the registration to every other process (the home
            # process receives the pickled component itself).
            self.backend.component_registered(component, gid, locality_id)
        return gid

    def invoke_async(self, gid: Gid, method: str, *args: Any, **kwargs: Any) -> Future:
        """Invoke a component action where the component lives (parcel)."""
        entry = self.agas.entry(gid)  # the one lookup; validates the target
        payload, by_ref = self._encode((method, args, kwargs))
        source, send_time = self._source_and_time()
        parcel = Parcel(source, payload, gid, None, send_time)
        parcel.target_entry = entry
        parcel.by_ref_body = by_ref
        return self._ship(parcel)

    def invoke(self, gid: Gid, method: str, *args: Any, **kwargs: Any) -> Any:
        return self.invoke_async(gid, method, *args, **kwargs).get()

    def invoke_apply(self, gid: Gid, method: str, *args: Any, **kwargs: Any) -> None:
        """Fire-and-forget component action (HPX ``hpx::post``).

        No reply parcel travels back, so one-way notifications (halo
        deposits, event signals) cost one transfer instead of two --
        which matters on platforms that cannot hide network time.
        """
        entry = self.agas.entry(gid)  # the one lookup; validates the target
        payload, by_ref = self._encode((method, args, kwargs))
        source, send_time = self._source_and_time()
        parcel = Parcel(source, payload, gid, None, send_time)
        parcel.target_entry = entry
        parcel.by_ref_body = by_ref
        parcel.fire_and_forget = True
        self.parcelport.send(parcel)

    def apply_at(
        self,
        locality_id: int,
        fn: Callable[..., Any] | str,
        *args: Any,
        kwargs: dict[str, Any] | None = None,
        priority: Any = None,
    ) -> None:
        """Fire-and-forget plain action on ``locality_id`` with a priority.

        Like :meth:`async_at` but one-way, and the parcel carries a
        :class:`~repro.runtime.threads.hpx_thread.ThreadPriority` for its
        handler task.  LOW-priority parcels are what overload admission
        treats as sheddable background traffic, so this is the front door
        for best-effort work (telemetry, speculative prefetch, the storm
        harness).  ``kwargs`` is an explicit dict (pool.submit-style) so
        action keyword arguments cannot collide with ``priority``.
        """
        self.locality(locality_id)  # validate
        payload, by_ref = self._encode((fn, args, kwargs or {}))
        source, send_time = self._source_and_time()
        parcel = Parcel(source, payload, None, locality_id, send_time)
        parcel.by_ref_body = by_ref
        parcel.fire_and_forget = True
        parcel.priority = priority
        self.parcelport.send(parcel)

    # Remote plain actions -------------------------------------------------------------
    def async_at(
        self, locality_id: int, fn: Callable[..., Any] | str, *args: Any, **kwargs: Any
    ) -> Future:
        """Run a plain action on ``locality_id``; returns a future here.

        ``fn`` may be a module-level callable (shipped by reference) or a
        registered action name.
        """
        self.locality(locality_id)  # validate
        payload, by_ref = self._encode((fn, args, kwargs))
        source, send_time = self._source_and_time()
        parcel = Parcel(source, payload, None, locality_id, send_time)
        parcel.by_ref_body = by_ref
        return self._ship(parcel)

    # Parcel plumbing ---------------------------------------------------------------
    def _encode(self, parcel_body: tuple) -> tuple[bytes, tuple | None]:
        """Serialize a parcel body ``(action, args, kwargs)``.

        The target is not part of the body: it rides on the parcel
        (``target_gid`` or ``target_locality``), which also tells the
        handler which kind of action ``action`` names.

        Returns ``(wire_bytes, by_reference_body)``.  The body is always
        encoded -- picklability is validated and the cost model sees the
        honest byte count.  On a loopback (same-process) port it *also*
        travels by reference, so delivery skips the decode; over a
        modelled network or a process boundary the receiver decodes.
        """
        data = serialize(parcel_body)
        return data, None if self._network_port else parcel_body

    def _send_time(self) -> float:
        frame = _context_stack[-1] if _context_stack else None
        if frame is None or frame.pool is None:
            return 0.0
        task = frame.task
        if task is not None:
            return task.current_virtual_time()
        return frame.pool.makespan

    def _source_and_time(self) -> tuple[int, float]:
        """``(sending locality id, _send_time())`` with one context fetch.

        Every parcel send needs both; resolving them from a single frame
        lookup (and reading the task clock directly instead of through
        ``pool.now``, which would re-fetch the frame) keeps the send
        path lean.
        """
        if not _context_stack:
            return 0, 0.0
        frame = _context_stack[-1]
        locality = frame.locality
        source = locality.locality_id if locality is not None else 0
        pool = frame.pool
        if pool is None:
            return source, 0.0
        task = frame.task
        if task is not None:
            return source, task.current_virtual_time()
        return source, pool.makespan

    def _destination_of(self, parcel: Parcel) -> int:
        if parcel.target_locality is not None:
            return parcel.target_locality
        entry = parcel.target_entry
        if entry is None or not entry.alive:
            entry = self._resolve_target(parcel)
        return entry.home

    def _resolve_target(self, parcel: Parcel) -> "_Entry":
        """Look a component parcel's GID up again.

        For a parcel that arrived as wire bytes (no handle) or whose
        handle went stale because the row left the table since the send;
        raises :class:`~repro.errors.UnknownGidError` for a destroyed
        object.
        """
        assert parcel.target_gid is not None
        entry = parcel.target_entry = self.agas.entry(parcel.target_gid)
        return entry

    def _ship(self, parcel: Parcel) -> Future:
        """Attach a reply promise and hand the parcel to the port (which
        resolves the destination -- possibly re-resolving after migration)."""
        promise = Promise()
        parcel.reply_promise = promise
        self.parcelport.send(parcel)
        return promise.get_future()

    def _duplicate_delivery(self, parcel: Parcel) -> bool:
        """Receiver-side dedupe: with faults injected, delivery is
        at-least-once on the wire but exactly-once at the action layer."""
        if self.fault_injector is None:
            return False
        if parcel.parcel_id in self._delivered_parcels:
            return True
        self._delivered_parcels.add(parcel.parcel_id)
        return False

    def _route_parcel(self, parcel: Parcel, arrival_time: float) -> None:
        """Decode a parcel and spawn its handler on the destination pool."""
        destination = self._destination_of(parcel)
        remote = self.backend
        if remote is not None and destination != remote.my_id:
            # Distributed mode: the destination locality lives in another
            # OS process.  The payload is already real wire bytes;
            # by_ref_body stays behind, so the receiving process decodes.
            # Port-side stats counted this send already.
            remote.forward_parcel(parcel, destination)
            return
        if destination in self.decommissioned:
            self.parcelport.report_loss(
                parcel,
                f"locality {destination} decommissioned",
                destination=destination,
            )
            return
        if self.fault_injector is not None and self.fault_injector.locality_down(
            destination, arrival_time
        ):
            # The destination node is inside an outage window when the
            # parcel lands: it is lost (and retried, if policy allows).
            self.parcelport.report_loss(
                parcel,
                f"locality {destination} down at t={arrival_time:.3g}",
                destination=destination,
            )
            return
        by_ref = parcel.by_ref_body
        body = by_ref if by_ref is not None else deserialize(parcel.payload)
        # The handler replies through ``reply_promise`` (or, one-way,
        # raises into the pool's failure list): its own result has no
        # reader, so it runs detached.
        self.localities[destination].pool.post(
            self._handle_parcel
            if self.parcelport.overload is None
            else self._handle_parcel_and_ack,
            parcel,
            destination,
            body,
            ready_time=arrival_time,
            description=("parcel#%d", parcel.parcel_id),
            priority=parcel.priority,
        )

    def _handle_parcel(self, parcel: Parcel, destination: int, body: tuple) -> None:
        """Run a delivered parcel's action (the handler HPX-thread's body).

        ``body`` is ``(action, args, kwargs)``: a method name when the
        parcel targets a component (``target_gid`` set), else a plain
        callable or registered action name.
        """
        action, args, kwargs = body
        try:
            if parcel.target_gid is not None:
                entry = parcel.target_entry
                if not entry.alive:  # destroyed (or re-registered) in flight
                    entry = self._resolve_target(parcel)
                if entry.home != destination:
                    # The object migrated between send and delivery:
                    # forward the parcel to its new home (AGAS routing).
                    self._reship(parcel)
                    return
                if self.fault_injector is not None and self._duplicate_delivery(parcel):
                    return
                entry.pinned += 1  # AgasService.pin/unpin, on the handle
                try:
                    result = entry.obj.act(action, *args, **kwargs)
                finally:
                    entry.pinned -= 1
            else:
                if self.fault_injector is not None and self._duplicate_delivery(parcel):
                    return
                if isinstance(action, str):
                    action = get_action(action)
                result = action(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - forwarded
            if parcel.fire_and_forget:
                raise  # surface in the destination pool's failure list
            self._reply(
                parcel.reply_promise, exc, destination, parcel.source_locality, is_error=True
            )
        else:
            if not parcel.fire_and_forget:
                self._reply(parcel.reply_promise, result, destination, parcel.source_locality)

    def _handle_parcel_and_ack(self, parcel: Parcel, destination: int, body: tuple) -> None:
        """:meth:`_handle_parcel` under overload admission control.

        Handler completion is the ack: it returns the send credit, feeds
        the phi detector, and closes breakers.  Early returns (migration
        reship, duplicate dedupe) ack too -- on_ack's holds_credit flip
        keeps the release exactly-once, and a reshipped parcel re-admits
        fresh.
        """
        try:
            self._handle_parcel(parcel, destination, body)
        finally:
            self.parcelport.overload.on_ack(parcel, destination, self._send_time())

    def _schedule_parcel_resume(self, parcel: Parcel, at_time: float) -> None:
        """Re-send a stalled or deferred parcel at virtual ``at_time``.

        Runs as a tiny task on the *source* pool (like retries): a
        credit-holding resume bypasses re-admission via
        ``parcel.holds_credit``; a deferred LOW parcel re-enters
        admission with its deferral count bumped.
        """
        pool = self.localities[parcel.source_locality].pool

        def resume() -> None:
            # The parcel is off the wire awaiting this resume; the task
            # is its sole owner, so the stamp has no concurrent reader.
            parcel.send_time = max(pool.now, at_time)
            self.parcelport.send(parcel)

        pool.post(
            resume,
            ready_time=at_time,
            description=f"parcel-resume#{parcel.parcel_id}",
        )

    def _schedule_parcel_retry(self, parcel: Parcel, at_time: float) -> None:
        """Retransmit a lost parcel at virtual ``at_time`` (ack-timeout).

        The retry runs as a tiny task on the *source* pool, so the
        retransmission consumes sender-side time exactly like the
        original send (including the overlap=False compute charge).
        """
        pool = self.localities[parcel.source_locality].pool

        def retransmit() -> None:
            # A lost parcel awaiting retry is owned by this task alone;
            # stamping the new send time races with nothing.
            parcel.send_time = pool.now
            self.parcelport.retransmit(parcel)

        pool.post(
            retransmit,
            ready_time=at_time,
            description=f"parcel-retry#{parcel.parcel_id}",
        )

    @property
    def localities_failed(self) -> int:
        """Number of scheduled locality outages (perfcounter source)."""
        if self.fault_injector is None:
            return 0
        return len(self.fault_injector.locality_failures)

    # Permanent-crash recovery ----------------------------------------------------
    def decommission_locality(self, locality_id: int) -> int:
        """Declare a locality permanently dead; returns tasks discarded.

        The node's queued-but-unstarted work is dropped (each task's
        promise broken), future parcels routed to it are reported lost,
        and the progress engine stops considering it.  Its AGAS-homed
        components stay resolvable so the caller can re-home them with
        :meth:`~repro.runtime.agas.service.AgasService.evacuate`.
        Locality 0 hosts the AGAS root and the main thread and cannot be
        decommissioned (matching HPX, where console loss ends the job).
        """
        self.locality(locality_id)  # validate the id
        if locality_id == 0:
            raise RuntimeStateError(
                "locality 0 hosts the AGAS root and the main thread; "
                "it cannot be decommissioned"
            )
        dropped = self.localities[locality_id].pool.discard_pending()
        self.decommissioned.add(locality_id)
        return dropped

    def lost_continuations(self) -> list[str]:
        """Labels of this job's demanded futures that have not fired,
        sorted.  Non-empty at quiescence: a continuation chain was lost."""
        return sorted(self.demanded.values())

    def forgive_lost_continuations(self) -> int:
        """Drop every currently-pending demanded future from this job's
        table; returns how many were forgiven.

        A checkpoint rollback abandons in-flight continuation chains by
        design -- the recomputation happens on fresh chains.  The
        abandoned dataflow/combinator targets can never fire, which the
        silent-hang check would otherwise report at shutdown.  Call this
        *after* discarding the old chains and *before* rebuilding.
        """
        forgiven = len(self.demanded)
        self.demanded.clear()
        return forgiven

    def _reship(self, parcel: Parcel) -> None:
        parcel.send_time = self._send_time()
        self.parcelport.send(parcel)

    def _reply(
        self,
        promise: Promise,
        value: Any,
        from_locality: int,
        to_locality: int,
        is_error: bool = False,
    ) -> None:
        """Route a result back to the caller as a (modelled) reply parcel.

        The reply is materialised as a tiny task on the *source* pool
        whose ready time includes the return-path network delay, so the
        future's virtual ready time is honest.
        """
        if to_locality in self.decommissioned:
            # The caller's node died while the action ran: the reply has
            # nowhere to land (its promise was abandoned with the node).
            return
        delay = 0.0
        if from_locality != to_locality and self._network_port:
            size = len(serialize(value)) + 64
            delay = self.parcelport.interconnect.transfer_time(size, self.n_localities)
        send_time = self._send_time()
        self.localities[to_locality].pool.post(
            promise.set_exception if is_error else promise.set_value,
            value,
            ready_time=send_time + delay,
            description="parcel-reply",
        )
