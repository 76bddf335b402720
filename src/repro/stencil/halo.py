"""The futurized halo-exchange chain, written once.

Both distributed stencils are one pattern: every partition owns a piece
of the field, ships its two edges to its neighbours as fire-and-forget
parcels, and advances through a per-partition dataflow chain in which
step ``t`` fires as soon as step ``t-1`` is done and both halos of ``t``
have arrived -- no global barrier, latency hides under compute.
:class:`HaloPartition` is the component side of that pattern and
:class:`HaloDriver` the driver side; :mod:`~repro.stencil.heat1d` (scalar
halos round a periodic ring) and :mod:`~repro.stencil.jacobi2d_dist`
(edge rows between open row blocks) instantiate them.

What a stencil supplies is the kernel (``advance``), which edges to cut
(its send method), the gather action, how the field splits, and -- as
*data*, class attributes below -- its topology and the names that travel
on the wire.  Action names and side strings are pickled into every
parcel, so each application keeps its own (``parcel.bytes`` pins them):
the shared methods are exposed under those names by one-line class-level
aliases, never forwarding ``def``s (one more interpreter call on every
deposit).  A neighbour GID of ``None`` is an open end: its halo is
permanently ready and nothing is shipped to it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable

import numpy as np

from ..errors import ValidationError
from ..runtime import context as ctx
from ..runtime.agas.component import Component
from ..runtime.backend import refuse_off_virtual_clock
from ..runtime.futures import Future, Promise, make_ready_future, when_all
from ..runtime.lco.dataflow import dataflow
from ..runtime.runtime import Runtime
from .recovery import run_with_recovery

__all__ = ["HaloPartition", "HaloDriver", "EDGE_LOG_STEPS"]

#: How many steps of sent edges a partition keeps for recovery resends.
EDGE_LOG_STEPS = 64


class HaloPartition(Component):
    """One partition's share of a distributed field, plus its halo chain.

    Halos for step ``t`` arrive through :meth:`deposit` (shipped as
    parcels by the neighbours) and are matched with per-``(step, side)``
    promises -- a tiny channel.  The subclass's ``advance(t, lo, hi)``
    consumes them between :meth:`_begin_step` and :meth:`_end_step`,
    which sends the *new* edges for step ``t+1`` so neighbours can run
    ahead; nothing ever blocks.
    """

    #: Halo side names, low-index neighbour's side first.
    sides: tuple[str, str]
    #: Wire name of :meth:`deposit` (a class-level alias of it).
    deposit_action: str
    #: Name of the method that cuts the current edges and hands them to
    #: :meth:`_ship_edges`; looked up per call so a profiler can wrap it.
    send_method: str
    #: Attributes snapshotted after ``u``, ``steps_done`` and ``edge_log``.
    checkpoint_fields: tuple[str, ...] = ("cost_per_step",)

    def __init__(self, u: np.ndarray, cost_per_step: float = 0.0) -> None:
        super().__init__()
        self.u = u
        #: Virtual compute seconds one local step costs (cost model hook).
        self.cost_per_step = float(cost_per_step)
        #: (step, side) -> promise of that halo, made by whichever of the
        #: chain and the deposit asks first.
        self._halos: dict[tuple[int, str], Promise] = defaultdict(Promise)
        #: Edge pairs as sent per step, for fault recovery: a neighbour
        #: that lost a halo parcel can ask for them again.
        self._edge_log: dict[int, tuple[Any, Any]] = {}
        self._runtime: Runtime | None = None
        #: side -> GID of the neighbour on that side (None: open end).
        self._neighbors: dict[str, Any] = dict.fromkeys(self.sides)
        self.steps_done = 0
        self._chain_until: int | None = None
        #: Completion future of the most recently built chain.
        self.final_future: Future = make_ready_future(0)

    # Wiring -----------------------------------------------------------------
    def connect(self, runtime: Runtime, lo_gid, hi_gid) -> None:
        """Install the neighbour GIDs; ``None`` means an open end."""
        self._runtime = runtime
        self._neighbors = dict(zip(self.sides, (lo_gid, hi_gid)))

    def connect_here(self, lo_gid, hi_gid) -> None:
        """Remote-safe :meth:`connect`: runs as a component action on the
        home locality and wires the *executing* runtime (in distributed
        mode each process has its own), so the driver never has to ship a
        Runtime reference."""
        self.connect(ctx.current().runtime, lo_gid, hi_gid)

    # Halo matching ----------------------------------------------------------
    def halo_future(self, step: int, side: str) -> Future:
        """Future for the ``side`` halo of ``step``.

        An open end is permanently ready with ``None`` (there is nothing
        to wait for; the kernel keeps its resident boundary).
        """
        if self._neighbors[side] is None:
            return make_ready_future(None)
        return self._halos[step, side].get_future()

    def deposit(self, step: int, side: str, value: Any) -> None:
        """A neighbour's edge arriving (component action).

        Idempotent: redelivery (a duplicated parcel, or a recovery
        resend) of an already-deposited halo is ignored -- the stencil is
        deterministic, so the value is necessarily identical.
        """
        if side not in self.sides:
            raise ValidationError(
                f"halo side must be {'/'.join(self.sides)}, got {side!r}"
            )
        promise = self._halos[step, side]
        if not promise.is_ready():
            promise.set_value(value)

    # Edge shipping ------------------------------------------------------------
    def _ship_edges(self, step: int, lo_edge: Any, hi_edge: Any) -> None:
        """Log the edge pair of ``step`` and ship it to the neighbours
        that exist.  My low edge is the *high*-side halo of the neighbour
        below and vice versa."""
        runtime = self._runtime
        if runtime is None:
            raise ValidationError("partition is not connected; call connect() first")
        self._edge_log[step] = (lo_edge, hi_edge)
        lo_side, hi_side = self.sides
        lo_gid, hi_gid = self._neighbors[lo_side], self._neighbors[hi_side]
        if lo_gid is not None:
            runtime.invoke_apply(lo_gid, self.deposit_action, step, hi_side, lo_edge)
        if hi_gid is not None:
            runtime.invoke_apply(hi_gid, self.deposit_action, step, lo_side, hi_edge)

    def resend_edges(self, step: int) -> bool:
        """Re-ship the logged edges of ``step`` (fault recovery).

        Returns False when this partition has not produced the edges for
        ``step`` yet -- its own chain will send them in due course.
        """
        logged = self._edge_log.get(step)
        if logged is None:
            return False
        self._ship_edges(step, *logged)
        return True

    # The step, around the subclass's kernel ------------------------------------
    def _begin_step(self, t: int) -> None:
        """Check that ``t`` is the step this partition is at."""
        if t != self.steps_done:
            raise ValidationError(
                f"advance({t}) out of order; partition is at step {self.steps_done}"
            )
        self.mark_write("u")

    def _end_step(self) -> int:
        """Account the step as done and send the edges for the next."""
        if self.cost_per_step:
            ctx.add_cost(self.cost_per_step)
        t = self.steps_done
        self.steps_done = t + 1
        # Drop the consumed promises so memory stays bounded over long runs,
        # and keep only a bounded window of resendable edge history.
        for side in self.sides:
            self._halos.pop((t, side), None)
        self._edge_log.pop(t - EDGE_LOG_STEPS, None)
        getattr(self, self.send_method)(self.steps_done)
        return self.steps_done

    # The chain ------------------------------------------------------------------
    def start_chain(self, steps: int) -> None:
        """Build the futurized time-step chain on this locality.

        Runs *as a component action on the home locality*, so every
        dataflow body it creates is scheduled on the home pool.  The
        chain for step ``t`` fires when step ``t-1`` is done and both
        halos of ``t`` have arrived -- pure continuation flow.
        """
        self.ensure_chain(self.steps_done + steps)

    def ensure_chain(self, target: int) -> None:
        """Build or extend the chain up to *absolute* step ``target``.

        Idempotent and race-free under recovery: the target is absolute,
        so a re-invocation that arrives after the partition has advanced
        (or whose original request raced a concurrent resend) extends the
        live chain exactly to ``target`` instead of overshooting.  A
        chain already built to ``target`` or beyond is left alone.
        """
        if self._chain_until is not None and self._chain_until >= target:
            return
        if self._chain_until is None:
            # Fresh chain (or resuming after a completed one): the last
            # advance of the previous chain already sent the edges for
            # step ``steps_done``; step 0 must seed them itself.
            built = self.steps_done
            if built == 0:
                getattr(self, self.send_method)(0)
            prev: Future = make_ready_future(built)
        else:
            # Live chain ending below target: append to its tail.
            built = self._chain_until
            prev = self.final_future
        self._chain_until = target
        lo_side, hi_side = self.sides
        for t in range(built, target):
            prev = dataflow(
                lambda lo, hi, _done, t=t: self.advance(t, lo, hi),
                self.halo_future(t, lo_side),
                self.halo_future(t, hi_side),
                prev,
            )
        self.final_future = prev

    def chain_result(self, target: int) -> int:
        """Build the chain to absolute step ``target`` and wait for it.

        The remote-safe run protocol: the reply parcel of this one invoke
        is the completion signal, so the driver never reads
        ``final_future`` across a process boundary.  Blocking here is
        cooperative -- the home pool keeps executing the chain (and
        remote halos keep landing) underneath the wait.
        """
        self.ensure_chain(target)
        return self.final_future.get()  # repro-lint: disable=PX301

    def reset_chain(self) -> None:
        """Abandon the live chain and halo-matching state (crash rollback).

        Safe only at a global stall: the progress engine has proven no
        queued task references the old promises, so the next
        ``ensure_chain`` starts a fresh timeline from ``steps_done``.
        """
        self._halos = defaultdict(Promise)
        self._chain_until = None
        self.final_future = make_ready_future(self.steps_done)

    # Checkpoint protocol ------------------------------------------------------
    def checkpoint_state(self) -> dict[str, Any]:
        """Snapshot the field, step count and resendable edge history.

        Taken at epoch quiescence, so the volatile chain state (halo
        promises, dataflow tail) is reconstructible and deliberately
        excluded.  The edge log rides along because a post-rollback
        neighbour may need edges from *before* the epoch re-sent (logged
        edges are never written to again, so the log is copied shallowly).
        """
        state = {
            "u": np.array(self.u, copy=True),
            "steps_done": self.steps_done,
            "edge_log": dict(self._edge_log),
        }
        for name in self.checkpoint_fields:
            state[name] = getattr(self, name)
        return state

    def restore_state(self, state: dict[str, Any]) -> None:
        """Roll back to a :meth:`checkpoint_state` snapshot, in place."""
        self.u = np.array(state["u"], dtype=np.float64, copy=True, order="C")
        self.steps_done = int(state["steps_done"])
        self._edge_log = dict(state["edge_log"])
        for name in self.checkpoint_fields:
            setattr(self, name, state[name])
        self.reset_chain()


class HaloDriver:
    """Driver side of the chain: wiring, run, resilient run, gather.

    Partitions are laid out in locality-major order.  On the virtual
    backend the driver shares the partition objects and reads their
    ``final_future`` directly; on the multiprocess backend the live
    objects are the home processes' copies, so wiring, completion and the
    gather all travel as component actions.  That fork is the only one.
    """

    #: Periodic ring (True) or open chain whose end partitions have a
    #: ``None`` neighbour (False).
    periodic: bool
    #: Wire names of the partition's remote-safe connect and gather actions.
    connect_action: str
    gather_action: str

    def __init__(
        self, runtime: Runtime, partitions_per_locality: int, cost_per_step: float
    ) -> None:
        self.runtime = runtime
        self.n_partitions = runtime.n_localities * partitions_per_locality
        self.partitions_per_locality = partitions_per_locality
        self.cost_per_step = cost_per_step
        self._parts: list[HaloPartition] = []
        self._gids: list = []
        # Absolute step count driven so far (distributed mode cannot read
        # ``part.steps_done`` across processes).
        self._steps_run = 0

    # Wiring -----------------------------------------------------------------
    def _neighbor_indices(self, p: int) -> tuple[int | None, int | None]:
        """Indices of partition ``p``'s (low, high) neighbours."""
        n = self.n_partitions
        if self.periodic:
            return (p - 1) % n, (p + 1) % n
        return (p - 1 if p > 0 else None), (p + 1 if p < n - 1 else None)

    def _wire(self, parts: Iterable[HaloPartition]) -> None:
        """Register ``parts`` as components and connect the neighbours.

        Starts a new run: a second ``initialize()`` forgets the steps the
        first one drove.  The first one's partitions stay registered in
        AGAS (two 4-partition initialisations leave 8 rows): dropping
        them needs a cross-process unregister the backend does not have.
        """
        runtime = self.runtime
        self._parts = []
        self._gids = []
        self._steps_run = 0
        for p, part in enumerate(parts):
            locality = p // self.partitions_per_locality
            self._gids.append(runtime.new_component(part, locality_id=locality))
            self._parts.append(part)
        wiring = [
            [None if q is None else self._gids[q] for q in self._neighbor_indices(p)]
            for p in range(self.n_partitions)
        ]
        if runtime.distributed:
            # The live partition objects are the home processes' copies;
            # wire them there (partitions homed at locality 0 resolve to
            # the driver's own objects, so those connect locally too).
            when_all(
                [
                    runtime.invoke_async(gid, self.connect_action, *pair)
                    for gid, pair in zip(self._gids, wiring)
                ]
            ).get()
        else:
            for part, pair in zip(self._parts, wiring):
                part.connect(runtime, *pair)

    # Running ------------------------------------------------------------------
    def _check(self, what: str, steps: int = 0) -> None:
        if not self._parts:
            raise ValidationError(f"call initialize() before {what}")
        if steps < 0:
            raise ValidationError("steps must be non-negative")

    def run(self, steps: int) -> np.ndarray:
        """Run ``steps`` time steps; returns the assembled global field."""
        self._check("run()", steps)
        if steps > 0:
            runtime = self.runtime
            target = self._steps_run + steps
            if runtime.distributed:
                when_all(
                    [
                        runtime.invoke_async(gid, "chain_result", target)
                        for gid in self._gids
                    ]
                ).get()
            else:
                chains = [
                    runtime.invoke_async(gid, "start_chain", steps)
                    for gid in self._gids
                ]
                when_all(chains).get()  # chains are *built*; now wait for completion
                when_all([part.final_future for part in self._parts]).get()
            self._steps_run = target
        return self.solution()

    def run_resilient(
        self,
        steps: int,
        max_recovery_rounds: int = 3,
        checkpoint_every: int = 0,
    ) -> np.ndarray:
        """Run ``steps`` steps, surviving parcel loss and locality outages.

        The transparent retry layer already bridges transient faults; on
        top of it, :func:`~repro.stencil.recovery.run_with_recovery`
        re-drives dead-lettered work (recovery rounds) and -- when a
        locality is confirmed permanently dead -- decommissions it,
        re-homes its partitions onto the survivors, and restarts from the
        last coordinated checkpoint epoch (``checkpoint_every`` steps
        apart; 0 = crash-triggered epochs only).
        The result is bit-identical to a fault-free :meth:`run`.
        """
        if self.runtime.distributed:
            refuse_off_virtual_clock("run_resilient")
        self._check("run_resilient()", steps)
        if steps > 0:
            run_with_recovery(
                self,
                steps,
                max_recovery_rounds=max_recovery_rounds,
                checkpoint_every=checkpoint_every,
            )
        return self.solution()

    def resend_stuck(self, boundary: int) -> None:
        """Ask the neighbours of every partition short of ``boundary`` to
        re-send the halos it waits on.  Whichever neighbour already
        produced them re-ships (idempotent); an open end has none."""
        for p, part in enumerate(self._parts):
            if part.steps_done < boundary:
                for q in self._neighbor_indices(p):
                    if q is not None:
                        self._parts[q].resend_edges(part.steps_done)

    # Gather -------------------------------------------------------------------
    def _gather(self) -> list:
        """Every partition's ``gather_action`` result, in partition order."""
        self._check("solution()")
        if self.runtime.distributed:
            futures = [
                self.runtime.invoke_async(gid, self.gather_action)
                for gid in self._gids
            ]
            return [future.get() for future in futures]
        return [getattr(part, self.gather_action)() for part in self._parts]
