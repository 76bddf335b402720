"""1D heat-equation solvers (paper Sec. IV-A, V-A, VII-A).

Three implementations of the 3-point stencil of Eq. (3), all with
periodic boundaries (as in the canonical HPX ``1d_stencil`` the paper's
benchmark derives from):

* :func:`heat1d_reference` -- plain NumPy, the numerical ground truth;
* :class:`Heat1DPartitioned` -- shared-memory solver structured exactly
  like Listing 1: the grid is cut into ``nlp`` partitions and each time
  step is an ``hpx::parallel::for_each`` over partitions;
* :class:`DistributedHeat1D` -- the fully distributed, *futurized*
  solver used for Fig 3: one :class:`Heat1DPartition` component per
  locality slot, halo values travelling as parcels, and a per-partition
  dataflow chain so network latencies hide under compute (no global
  barrier anywhere).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import Any

from ..errors import ConfigError, ValidationError
from ..runtime import context as ctx
from ..runtime.agas.component import Component
from ..runtime.algorithms import ExecutionPolicy, for_each, for_each_block, seq
from ..runtime.futures import Future, Promise, make_ready_future, when_all
from ..runtime.lco.dataflow import dataflow
from ..runtime.runtime import Runtime
from .grid import Layout  # noqa: F401  (re-exported type alias)
from .recovery import run_with_recovery

__all__ = [
    "Heat1DParams",
    "heat1d_reference",
    "Heat1DPartitioned",
    "Heat1DPartition",
    "DistributedHeat1D",
]


@dataclass(frozen=True)
class Heat1DParams:
    """Discretisation of Eq. (2): ``du/dt = alpha * d2u/dx2``."""

    alpha: float = 1.0
    dt: float = 4.0e-5
    dx: float = 1.0e-2

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.dt <= 0 or self.dx <= 0:
            raise ValidationError("alpha, dt and dx must all be positive")

    @property
    def k(self) -> float:
        """The stencil coefficient ``alpha * dt / dx^2`` of Eq. (3)."""
        return self.alpha * self.dt / (self.dx * self.dx)

    def check_stability(self) -> None:
        """Explicit Euler needs ``k <= 1/2`` or the solution blows up."""
        if self.k > 0.5:
            raise ValidationError(
                f"unstable discretisation: alpha*dt/dx^2 = {self.k:.4g} > 0.5"
            )


def heat1d_reference(u0: np.ndarray, steps: int, params: Heat1DParams) -> np.ndarray:
    """Ground-truth periodic 3-point stencil, vectorized NumPy."""
    if steps < 0:
        raise ValidationError("steps must be non-negative")
    u = np.array(u0, dtype=np.float64, copy=True)
    k = params.k
    for _ in range(steps):
        u = u + k * (np.roll(u, 1) - 2.0 * u + np.roll(u, -1))
    return u


def _update_interior(u: np.ndarray, left: float, right: float, k: float) -> np.ndarray:
    """One stencil step over a chunk given its two halo values."""
    new = np.empty_like(u)
    if u.shape[0] == 1:
        new[0] = u[0] + k * (left - 2.0 * u[0] + right)
        return new
    new[1:-1] = u[1:-1] + k * (u[:-2] - 2.0 * u[1:-1] + u[2:])
    new[0] = u[0] + k * (left - 2.0 * u[0] + u[1])
    new[-1] = u[-1] + k * (u[-2] - 2.0 * u[-1] + right)
    return new


class Heat1DPartitioned:
    """Shared-memory solver in the shape of Listing 1.

    The grid is a flat array of ``nx`` points cut into ``nlp``
    partitions; each time step applies ``stencil_update`` to every
    partition through ``for_each(policy, range(nlp), ...)``.  Periodic
    halos come straight from the shared array (no messages on one node).
    """

    def __init__(self, nx: int, nlp: int, params: Heat1DParams | None = None) -> None:
        if nlp < 1:
            raise ValidationError("need at least one partition")
        if nx < nlp or nx % nlp != 0:
            raise ValidationError(
                f"{nx} points do not split evenly into {nlp} partitions"
            )
        self.nx = nx
        self.nlp = nlp
        self.local_nx = nx // nlp
        self.params = params or Heat1DParams()
        self.params.check_stability()
        self._u = [np.zeros(nx), np.zeros(nx)]
        self.steps_done = 0

    def initialize(self, u0: np.ndarray) -> None:
        u0 = np.asarray(u0, dtype=np.float64)
        if u0.shape != (self.nx,):
            raise ValidationError(f"expected initial field of shape ({self.nx},)")
        self._u[0][...] = u0
        self._u[1][...] = u0

    def _stencil_update(self, i: int, t: int) -> None:
        """Update partition ``i`` for time step ``t`` (Listing 1 body)."""
        curr = self._u[t % 2]
        new = self._u[(t + 1) % 2]
        lo = i * self.local_nx
        hi = (i + 1) * self.local_nx
        left = curr[(lo - 1) % self.nx]
        right = curr[hi % self.nx]
        new[lo:hi] = _update_interior(curr[lo:hi], left, right, self.params.k)

    def _stencil_update_block(self, parts: range, t: int) -> None:
        """Fused Listing 1 body: one update over a run of partitions.

        Every partition reads halos from the *previous* time level, so a
        contiguous run of partitions is just a wider 3-point stencil over
        their combined span -- the interior partition boundaries resolve
        to exactly the ``curr`` values the per-partition updates would
        read, and :func:`_update_interior` applies the identical
        expression per element.  Bit-identical to updating the
        partitions one by one, minus the per-partition Python dispatch
        and slice bookkeeping.
        """
        curr = self._u[t % 2]
        new = self._u[(t + 1) % 2]
        lo = parts.start * self.local_nx
        hi = parts.stop * self.local_nx
        left = curr[(lo - 1) % self.nx]
        right = curr[hi % self.nx]
        new[lo:hi] = _update_interior(curr[lo:hi], left, right, self.params.k)

    def run(
        self, steps: int, policy: ExecutionPolicy = seq, fused: bool = True
    ) -> np.ndarray:
        """Iterate ``steps`` time steps; returns the final field.

        ``fused`` (default) drives each time step through
        :func:`~repro.runtime.algorithms.for_each_block`: the same chunk
        partitioning and one HPX-thread per chunk as the per-partition
        path, but each thread applies one vectorized update over its
        whole span of partitions.  Results and virtual makespans are
        bit-identical either way (the determinism tests assert it);
        ``fused=False`` keeps the literal Listing 1 shape.
        """
        if steps < 0:
            raise ValidationError("steps must be non-negative")
        for t in range(self.steps_done, self.steps_done + steps):
            if fused:
                for_each_block(
                    policy,
                    0,
                    self.nlp,
                    lambda rng, t=t: self._stencil_update_block(rng, t),
                )
            else:
                for_each(
                    policy, range(self.nlp), lambda i, t=t: self._stencil_update(i, t)
                )
        self.steps_done += steps
        return self.solution()

    def solution(self) -> np.ndarray:
        return np.array(self._u[self.steps_done % 2], copy=True)


class Heat1DPartition(Component):
    """One locality's share of the distributed 1D grid.

    Halo values for step ``t`` arrive via :meth:`deposit_halo` (shipped
    as parcels by the neighbours) and are matched with per-``(step,
    side)`` promises -- a tiny channel.  :meth:`advance` consumes them,
    steps the local field, and immediately sends the *new* boundary
    values for step ``t+1``, so neighbours can run ahead; nothing ever
    blocks.
    """

    def __init__(
        self,
        data: np.ndarray,
        params: Heat1DParams,
        cost_per_step: float = 0.0,
    ) -> None:
        super().__init__()
        self.u = np.array(data, dtype=np.float64, copy=True)
        self.params = params
        #: Virtual compute seconds one local step costs (cost model hook).
        self.cost_per_step = float(cost_per_step)
        self._halos: dict[tuple[int, str], Promise] = {}
        #: Boundary values as sent per step, for fault recovery: a
        #: neighbour that lost a halo parcel can ask for it again.
        self._edge_log: dict[int, tuple[float, float]] = {}
        self._runtime: Runtime | None = None
        self._left_gid = None
        self._right_gid = None
        self.steps_done = 0
        self._chain_until: int | None = None
        #: Completion future of the most recently built chain.
        self.final_future: Future = make_ready_future(0)

    # Wiring -----------------------------------------------------------------
    def connect(self, runtime: Runtime, left_gid, right_gid) -> None:
        """Install neighbour GIDs (periodic ring)."""
        self._runtime = runtime
        self._left_gid = left_gid
        self._right_gid = right_gid

    def connect_ring(self, left_gid, right_gid) -> None:
        """Remote-safe :meth:`connect`: runs as a component action on the
        home locality and wires the *executing* runtime (in distributed
        mode each process has its own), so the driver never has to ship a
        Runtime reference."""
        self.connect(ctx.current().runtime, left_gid, right_gid)

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

    def _halo_promise(self, step: int, side: str) -> Promise:
        key = (step, side)
        if key not in self._halos:
            self._halos[key] = Promise()
        return self._halos[key]

    def halo_future(self, step: int, side: str) -> Future:
        """Future for the ``side`` ("left"/"right") halo of ``step``."""
        return self._halo_promise(step, side).get_future()

    # Remote surface ----------------------------------------------------------
    def deposit_halo(self, step: int, side: str, value: float) -> None:
        """A neighbour's boundary value arriving (component action).

        Idempotent: redelivery (a duplicated parcel, or a recovery
        resend) of an already-deposited halo is ignored -- the stencil is
        deterministic, so the value is necessarily identical.
        """
        if side not in ("left", "right"):
            raise ValidationError(f"halo side must be left/right, got {side!r}")
        promise = self._halo_promise(step, side)
        if not promise.is_ready():
            promise.set_value(float(value))

    def send_boundaries(self, step: int) -> None:
        """Ship this partition's current edges to both neighbours.

        The left edge is the *right* halo of the left neighbour and vice
        versa.
        """
        runtime = self._require_runtime()
        self.mark_read("u")
        left_edge, right_edge = float(self.u[0]), float(self.u[-1])
        self._edge_log[step] = (left_edge, right_edge)
        runtime.invoke_apply(self._left_gid, "deposit_halo", step, "right", left_edge)
        runtime.invoke_apply(self._right_gid, "deposit_halo", step, "left", right_edge)

    def resend_boundaries(self, step: int) -> bool:
        """Re-ship the logged boundary values of ``step`` (fault recovery).

        Returns False when this partition has not produced the values for
        ``step`` yet -- its own chain will send them in due course.
        """
        logged = self._edge_log.get(step)
        if logged is None:
            return False
        runtime = self._require_runtime()
        left_edge, right_edge = logged
        runtime.invoke_apply(self._left_gid, "deposit_halo", step, "right", left_edge)
        runtime.invoke_apply(self._right_gid, "deposit_halo", step, "left", right_edge)
        return True

    def advance(self, t: int, left: float, right: float) -> int:
        """Apply step ``t`` given its halos; send halos for ``t+1``."""
        if t != self.steps_done:
            raise ValidationError(
                f"advance({t}) out of order; partition is at step {self.steps_done}"
            )
        self.mark_write("u")
        self.u = _update_interior(self.u, left, right, self.params.k)
        if self.cost_per_step:
            ctx.add_cost(self.cost_per_step)
        self.steps_done += 1
        # Drop the consumed promises so memory stays bounded over long runs,
        # and keep only a bounded window of resendable edge history.
        self._halos.pop((t, "left"), None)
        self._halos.pop((t, "right"), None)
        self._edge_log.pop(t - 64, None)
        self.send_boundaries(self.steps_done)
        return self.steps_done

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
        self._require_runtime()
        if self._chain_until is not None and self._chain_until >= target:
            return
        if self._chain_until is None:
            # Fresh chain (or resuming after a completed one): the last
            # advance of the previous chain already sent the boundaries
            # for step ``steps_done``; step 0 must seed them itself.
            built = self.steps_done
            if built == 0:
                self.send_boundaries(0)
            prev: Future = make_ready_future(built)
        else:
            # Live chain ending below target: append to its tail.
            built = self._chain_until
            prev = self.final_future
        self._chain_until = target
        for t in range(built, target):
            prev = dataflow(
                lambda left, right, _done, t=t: self.advance(t, left, right),
                self.halo_future(t, "left"),
                self.halo_future(t, "right"),
                prev,
            )
        self.final_future = prev

    def local_solution(self) -> np.ndarray:
        self.mark_read("u")
        return np.array(self.u, copy=True)

    # Checkpoint protocol ------------------------------------------------------
    def checkpoint_state(self) -> dict[str, Any]:
        """Snapshot the field, step count and resendable edge history.

        Taken at epoch quiescence, so the volatile chain state (halo
        promises, dataflow tail) is reconstructible and deliberately
        excluded.  The edge log rides along because a post-rollback
        neighbour may need edges from *before* the epoch re-sent.
        """
        return {
            "u": np.array(self.u, copy=True),
            "steps_done": self.steps_done,
            "edge_log": dict(self._edge_log),
            "params": self.params,
            "cost_per_step": self.cost_per_step,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Roll back to a :meth:`checkpoint_state` snapshot, in place."""
        self.u = np.array(state["u"], dtype=np.float64, copy=True)
        self.params = state["params"]
        self.cost_per_step = float(state["cost_per_step"])
        self.steps_done = int(state["steps_done"])
        self._edge_log = dict(state["edge_log"])
        self.reset_chain()

    def reset_chain(self) -> None:
        """Abandon the live chain and halo-matching state (crash rollback).

        Safe only at a global stall: the progress engine has proven no
        queued task references the old promises, so the next
        ``ensure_chain`` starts a fresh timeline from ``steps_done``.
        """
        self._halos = {}
        self._chain_until = None
        self.final_future = make_ready_future(self.steps_done)

    def _require_runtime(self) -> Runtime:
        if self._runtime is None or self._left_gid is None or self._right_gid is None:
            raise ValidationError("partition is not connected; call connect() first")
        return self._runtime


class DistributedHeat1D:
    """Driver for the fully distributed solver (Fig 3's application).

    Splits ``nx`` points over ``partitions_per_locality * n_localities``
    partitions laid out round the periodic ring in locality-major order,
    registers each partition as a component on its locality, and runs
    the futurized chains to completion.
    """

    def __init__(
        self,
        runtime: Runtime,
        nx: int,
        params: Heat1DParams | None = None,
        partitions_per_locality: int = 1,
        cost_per_step: float = 0.0,
    ) -> None:
        n_parts = runtime.n_localities * partitions_per_locality
        if nx < n_parts or nx % n_parts != 0:
            raise ValidationError(
                f"{nx} points do not split evenly into {n_parts} partitions"
            )
        self.runtime = runtime
        self.nx = nx
        self.params = params or Heat1DParams()
        self.params.check_stability()
        self.n_partitions = n_parts
        self.local_nx = nx // n_parts
        self.partitions_per_locality = partitions_per_locality
        self.cost_per_step = cost_per_step
        self._gids: list = []
        self._parts: list[Heat1DPartition] = []
        # Absolute step count driven so far (distributed mode cannot read
        # ``part.steps_done`` across processes).
        self._steps_run = 0

    def initialize(self, u0: np.ndarray) -> None:
        """Create and connect the partition components from ``u0``."""
        u0 = np.asarray(u0, dtype=np.float64)
        if u0.shape != (self.nx,):
            raise ValidationError(f"expected initial field of shape ({self.nx},)")
        self._gids.clear()
        self._parts.clear()
        for p in range(self.n_partitions):
            locality = p // self.partitions_per_locality
            chunk = u0[p * self.local_nx : (p + 1) * self.local_nx]
            part = Heat1DPartition(chunk, self.params, self.cost_per_step)
            gid = self.runtime.new_component(part, locality_id=locality)
            self._gids.append(gid)
            self._parts.append(part)
        n = self.n_partitions
        if self.runtime.distributed:
            # The live partition objects are the home processes' copies;
            # wire them there (partitions homed at locality 0 resolve to
            # the driver's own objects, so those connect locally too).
            when_all(
                [
                    self.runtime.invoke_async(
                        self._gids[p],
                        "connect_ring",
                        self._gids[(p - 1) % n],
                        self._gids[(p + 1) % n],
                    )
                    for p in range(n)
                ]
            ).get()
            return
        for p, part in enumerate(self._parts):
            part.connect(self.runtime, self._gids[(p - 1) % n], self._gids[(p + 1) % n])

    def run(self, steps: int) -> np.ndarray:
        """Run ``steps`` time steps; returns the assembled global field."""
        if not self._parts:
            raise ValidationError("call initialize() before run()")
        if steps < 0:
            raise ValidationError("steps must be non-negative")
        if steps > 0:
            if self.runtime.distributed:
                target = self._steps_run + steps
                when_all(
                    [
                        self.runtime.invoke_async(gid, "chain_result", target)
                        for gid in self._gids
                    ]
                ).get()
                self._steps_run = target
            else:
                chains = [
                    self.runtime.invoke_async(gid, "start_chain", steps)
                    for gid in self._gids
                ]
                when_all(chains).get()  # chains are *built*; now wait for completion
                when_all([part.final_future for part in self._parts]).get()
                self._steps_run += steps
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
            raise ConfigError(
                "run_resilient requires the virtual-clock backend "
                "(runtime.backend='virtual'): checkpoint recovery drives "
                "partition objects directly and replays virtual time"
            )
        if not self._parts:
            raise ValidationError("call initialize() before run()")
        if steps < 0:
            raise ValidationError("steps must be non-negative")
        if steps == 0:
            return self.solution()
        run_with_recovery(
            self.runtime,
            self._parts,
            self._gids,
            steps,
            self._resend_stuck,
            max_recovery_rounds=max_recovery_rounds,
            checkpoint_every=checkpoint_every,
        )
        return self.solution()

    def _resend_stuck(self, p: int, stuck_at: int) -> None:
        """Ask partition ``p``'s ring neighbours to re-send its halos."""
        n = self.n_partitions
        self._parts[(p - 1) % n].resend_boundaries(stuck_at)
        self._parts[(p + 1) % n].resend_boundaries(stuck_at)

    def solution(self) -> np.ndarray:
        """Gather the global field (driver-side, for verification)."""
        if self.runtime.distributed:
            futures = [
                self.runtime.invoke_async(gid, "local_solution")
                for gid in self._gids
            ]
            return np.concatenate([future.get() for future in futures])
        return np.concatenate([part.local_solution() for part in self._parts])
