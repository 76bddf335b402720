"""Distributed 2D Jacobi: row-block decomposition over localities.

The paper runs its 2D stencil shared-memory only and its distributed
study in 1D; combining them -- the 2D kernel under the 1D solver's
futurized halo-exchange pattern -- is the natural extension (and the
shape of every production HPX stencil code, e.g. the paper's Ref. [9]).

Each locality owns a contiguous block of grid rows plus two halo rows.
Per time step a partition ships its edge rows to its neighbours as
parcels (NumPy arrays ride the serialization layer), and a per-partition
dataflow chain advances as soon as both halo rows for the step have
arrived -- no global barrier, latency hides under compute exactly as in
:mod:`repro.stencil.heat1d`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import ConfigError, ValidationError
from ..runtime import context as ctx
from ..runtime.agas.component import Component
from ..runtime.futures import Future, Promise, make_ready_future, when_all
from ..runtime.lco.dataflow import dataflow
from ..runtime.runtime import Runtime
from .recovery import run_with_recovery

__all__ = ["Jacobi2DPartition", "DistributedJacobi2D"]


class Jacobi2DPartition(Component):
    """One locality's block of rows (+2 halo rows) of the global grid.

    ``data`` has shape ``(local_ny + 2, nx)``: row 0 and row -1 are the
    halo rows (either a neighbour's edge or the global Dirichlet
    boundary).  Column 0 and -1 are the global Dirichlet side walls and
    are never written.
    """

    def __init__(self, data: np.ndarray, cost_per_step: float = 0.0) -> None:
        super().__init__()
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] < 3 or data.shape[1] < 3:
            raise ValidationError(f"partition needs >= 3x3 incl. halos, got {data.shape}")
        self.u = np.array(data, copy=True)
        self.cost_per_step = float(cost_per_step)
        self._halos: dict[tuple[int, str], Promise] = {}
        #: Edge rows as sent per step, for fault recovery: a neighbour
        #: that lost a halo parcel can ask for them again.
        self._edge_log: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._runtime: Runtime | None = None
        self._up_gid = None  # neighbour owning the rows above (or None)
        self._down_gid = None
        self.steps_done = 0
        self._chain_until: int | None = None
        #: Completion future of the most recently built chain.
        self.final_future: Future = make_ready_future(0)

    # Wiring --------------------------------------------------------------------
    def connect(self, runtime: Runtime, up_gid, down_gid) -> None:
        """Attach neighbour GIDs; None means global boundary on that side."""
        self._runtime = runtime
        self._up_gid = up_gid
        self._down_gid = down_gid

    def connect_neighbors(self, up_gid, down_gid) -> None:
        """Remote-safe :meth:`connect`: runs as a component action on the
        home locality and wires the *executing* runtime (in distributed
        mode each process has its own), so the driver never has to ship a
        Runtime reference."""
        self.connect(ctx.current().runtime, up_gid, down_gid)

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
        """Future for the ``"up"``/``"down"`` halo row of ``step``.

        Global-boundary sides are permanently ready with ``None`` (the
        resident halo row is already correct and constant).
        """
        if (side == "up" and self._up_gid is None) or (
            side == "down" and self._down_gid is None
        ):
            return make_ready_future(None)
        return self._halo_promise(step, side).get_future()

    # Remote surface ----------------------------------------------------------------
    def deposit_halo_row(self, step: int, side: str, row: np.ndarray) -> None:
        """A neighbour's edge row arriving (component action).

        Idempotent: redelivery (a duplicated parcel, or a recovery
        resend) of an already-deposited row is ignored -- the stencil is
        deterministic, so the values are necessarily identical.
        """
        if side not in ("up", "down"):
            raise ValidationError(f"halo side must be up/down, got {side!r}")
        promise = self._halo_promise(step, side)
        if not promise.is_ready():
            promise.set_value(np.asarray(row, dtype=np.float64))

    def send_edges(self, step: int) -> None:
        """Ship current edge rows to the neighbours that exist."""
        runtime = self._require_runtime()
        self.mark_read("u")
        top, bottom = np.array(self.u[1], copy=True), np.array(self.u[-2], copy=True)
        self._edge_log[step] = (top, bottom)
        if self._up_gid is not None:
            # My top interior row is the *down* halo of the block above.
            runtime.invoke_apply(self._up_gid, "deposit_halo_row", step, "down", top)
        if self._down_gid is not None:
            runtime.invoke_apply(self._down_gid, "deposit_halo_row", step, "up", bottom)

    def resend_edges(self, step: int) -> bool:
        """Re-ship the logged edge rows of ``step`` (fault recovery).

        Returns False when this partition has not produced the rows for
        ``step`` yet -- its own chain will send them in due course.
        """
        logged = self._edge_log.get(step)
        if logged is None:
            return False
        runtime = self._require_runtime()
        top, bottom = logged
        if self._up_gid is not None:
            runtime.invoke_apply(self._up_gid, "deposit_halo_row", step, "down", top)
        if self._down_gid is not None:
            runtime.invoke_apply(self._down_gid, "deposit_halo_row", step, "up", bottom)
        return True

    def advance(self, t: int, up_row, down_row) -> int:
        """Apply step ``t`` given the halo rows; send edges for ``t+1``."""
        if t != self.steps_done:
            raise ValidationError(
                f"advance({t}) out of order; partition is at step {self.steps_done}"
            )
        self.mark_write("u")
        if up_row is not None:
            self.u[0, :] = up_row
        if down_row is not None:
            self.u[-1, :] = down_row
        new = np.array(self.u, copy=True)
        new[1:-1, 1:-1] = 0.25 * (
            self.u[2:, 1:-1] + self.u[:-2, 1:-1] + self.u[1:-1, 2:] + self.u[1:-1, :-2]
        )
        self.u = new
        if self.cost_per_step:
            ctx.add_cost(self.cost_per_step)
        self.steps_done += 1
        # Drop the consumed promises so memory stays bounded over long runs,
        # and keep only a bounded window of resendable edge history.
        self._halos.pop((t, "up"), None)
        self._halos.pop((t, "down"), None)
        self._edge_log.pop(t - 64, None)
        self.send_edges(self.steps_done)
        return self.steps_done

    def start_chain(self, steps: int) -> None:
        """Build the futurized per-partition time loop (on home locality)."""
        self.ensure_chain(self.steps_done + steps)

    def ensure_chain(self, target: int) -> None:
        """Build or extend the chain up to *absolute* step ``target``.

        Idempotent and race-free under recovery: the target is absolute,
        so a re-invocation that arrives after the partition has advanced
        extends the live chain exactly to ``target`` instead of
        overshooting.  A chain already built to ``target`` or beyond is
        left alone.
        """
        self._require_runtime()
        if self._chain_until is not None and self._chain_until >= target:
            return
        if self._chain_until is None:
            # Fresh chain (or resuming after a completed one): the last
            # advance of the previous chain already sent the edges for
            # step ``steps_done``; step 0 must seed them itself.
            built = self.steps_done
            if built == 0:
                self.send_edges(0)
            prev: Future = make_ready_future(built)
        else:
            # Live chain ending below target: append to its tail.
            built = self._chain_until
            prev = self.final_future
        self._chain_until = target
        for t in range(built, target):
            prev = dataflow(
                lambda up, down, _done, t=t: self.advance(t, up, down),
                self.halo_future(t, "up"),
                self.halo_future(t, "down"),
                prev,
            )
        self.final_future = prev

    def interior(self) -> np.ndarray:
        """This partition's owned rows (without halo rows)."""
        self.mark_read("u")
        return np.array(self.u[1:-1, :], copy=True)

    def local_residual(self) -> float:
        """Sum of squared Jacobi residuals over owned interior cells."""
        self.mark_read("u")
        sweep = 0.25 * (
            self.u[2:, 1:-1] + self.u[:-2, 1:-1] + self.u[1:-1, 2:] + self.u[1:-1, :-2]
        )
        diff = sweep - self.u[1:-1, 1:-1]
        return float(np.sum(diff * diff))

    # Checkpoint protocol ------------------------------------------------------
    def checkpoint_state(self) -> dict[str, Any]:
        """Snapshot the block, step count and resendable edge history.

        Taken at epoch quiescence, so the volatile chain state (halo
        promises, dataflow tail) is reconstructible and deliberately
        excluded.  The edge log rides along because a post-rollback
        neighbour may need rows from *before* the epoch re-sent.
        """
        return {
            "u": np.array(self.u, copy=True),
            "steps_done": self.steps_done,
            "edge_log": {
                step: (np.array(top, copy=True), np.array(bottom, copy=True))
                for step, (top, bottom) in sorted(self._edge_log.items())
            },
            "cost_per_step": self.cost_per_step,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Roll back to a :meth:`checkpoint_state` snapshot, in place."""
        self.u = np.array(state["u"], dtype=np.float64, copy=True)
        self.cost_per_step = float(state["cost_per_step"])
        self.steps_done = int(state["steps_done"])
        self._edge_log = {
            step: (np.asarray(top, dtype=np.float64), np.asarray(bottom, dtype=np.float64))
            for step, (top, bottom) in state["edge_log"].items()
        }
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
        if self._runtime is None:
            raise ValidationError("partition is not connected; call connect() first")
        return self._runtime


class DistributedJacobi2D:
    """Driver: split ``(ny, nx)`` rows over the runtime's localities."""

    def __init__(
        self,
        runtime: Runtime,
        ny: int,
        nx: int,
        partitions_per_locality: int = 1,
        cost_per_step: float = 0.0,
    ) -> None:
        n_parts = runtime.n_localities * partitions_per_locality
        interior_rows = ny - 2
        if interior_rows < n_parts or interior_rows % n_parts != 0:
            raise ValidationError(
                f"{interior_rows} interior rows do not split evenly into "
                f"{n_parts} partitions"
            )
        if nx < 3:
            raise ValidationError("grid must have at least 3 columns")
        self.runtime = runtime
        self.ny = ny
        self.nx = nx
        self.n_partitions = n_parts
        self.rows_per_part = interior_rows // n_parts
        self.partitions_per_locality = partitions_per_locality
        self.cost_per_step = cost_per_step
        self._parts: list[Jacobi2DPartition] = []
        self._gids: list = []
        # Absolute step count driven so far (distributed mode cannot read
        # ``part.steps_done`` across processes).
        self._steps_run = 0

    def initialize(self, field: np.ndarray) -> None:
        field = np.asarray(field, dtype=np.float64)
        if field.shape != (self.ny, self.nx):
            raise ValidationError(
                f"expected field of shape ({self.ny}, {self.nx}), got {field.shape}"
            )
        self._field_top = np.array(field[0, :], copy=True)
        self._field_bottom = np.array(field[-1, :], copy=True)
        self._parts.clear()
        self._gids.clear()
        for p in range(self.n_partitions):
            locality = p // self.partitions_per_locality
            lo = 1 + p * self.rows_per_part
            hi = lo + self.rows_per_part
            block = field[lo - 1 : hi + 1, :]  # incl. one halo row each side
            part = Jacobi2DPartition(block, self.cost_per_step)
            gid = self.runtime.new_component(part, locality_id=locality)
            self._parts.append(part)
            self._gids.append(gid)
        if self.runtime.distributed:
            # The live partition objects are the home processes' copies;
            # wire them there (partitions homed at locality 0 resolve to
            # the driver's own objects, so those connect locally too).
            when_all(
                [
                    self.runtime.invoke_async(
                        self._gids[p],
                        "connect_neighbors",
                        self._gids[p - 1] if p > 0 else None,
                        self._gids[p + 1] if p < self.n_partitions - 1 else None,
                    )
                    for p in range(self.n_partitions)
                ]
            ).get()
            return
        for p, part in enumerate(self._parts):
            up = self._gids[p - 1] if p > 0 else None
            down = self._gids[p + 1] if p < self.n_partitions - 1 else None
            part.connect(self.runtime, up, down)

    def run(self, steps: int) -> np.ndarray:
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
                when_all(chains).get()
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

        Same contract as :meth:`DistributedHeat1D.run_resilient` -- the
        shared :func:`~repro.stencil.recovery.run_with_recovery` driver
        handles dead-letter recovery rounds and, for permanent crashes,
        checkpoint-restart with AGAS re-homing.  The result is
        bit-identical to a fault-free :meth:`run`.
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
        """Ask partition ``p``'s existing neighbours to re-send its rows.

        Unlike heat1d's periodic ring, the row blocks have edges: only
        in-range neighbours exist (the missing side is the constant
        Dirichlet boundary, never shipped).
        """
        if p > 0:
            self._parts[p - 1].resend_edges(stuck_at)
        if p < self.n_partitions - 1:
            self._parts[p + 1].resend_edges(stuck_at)

    def solution(self) -> np.ndarray:
        """Assemble the global field (incl. Dirichlet boundary rows)."""
        if not self._parts:
            raise ValidationError("call initialize() before solution()")
        if self.runtime.distributed:
            futures = [
                self.runtime.invoke_async(gid, "interior") for gid in self._gids
            ]
            blocks = [future.get() for future in futures]
        else:
            blocks = [part.interior() for part in self._parts]
        return np.vstack([self._field_top[None, :]] + blocks + [self._field_bottom[None, :]])

    def residual(self) -> float:
        """Global Jacobi residual: RMS change one more sweep would make.

        Computed as a distributed reduction over the partitions'
        component actions -- the collectives pattern at work.
        """
        futures = [
            self.runtime.invoke_async(gid, "local_residual") for gid in self._gids
        ]
        total = sum(f.get() for f in when_all(futures).get())
        return float(np.sqrt(total / ((self.ny - 2) * (self.nx - 2))))
