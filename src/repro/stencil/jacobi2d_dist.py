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
:mod:`repro.stencil.heat1d`: both instantiate the one protocol of
:mod:`repro.stencil.halo`.

**A level's interior is immutable once stepped.**  Every step writes a
fresh array (:func:`_sweep`); afterwards only its halo rows 0 and -1 are
written, when the next step's halos land.  So the gather hands out a
read-only view of the owned rows, and the driver's ``vstack`` is the one
copy.  Reusing a step buffer would break this.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..runtime.futures import when_all
from ..runtime.runtime import Runtime
from .halo import HaloDriver, HaloPartition

__all__ = ["Jacobi2DPartition", "DistributedJacobi2D"]


def _sweep(u: np.ndarray) -> np.ndarray:
    """One Jacobi sweep of the C-ordered block ``u``, into a new array.

    The interior runs as four contiguous ``out=`` passes over the flat
    range ``u[1, 1]`` .. ``u[-2, -2]``: NumPy streams a flat slice much
    faster than a 2D view with a short inner extent.  Operands and order
    are the reference's (down + up, + right, + left, x 0.25), so the
    result is bit-identical to
    :func:`~repro.stencil.jacobi2d.jacobi_reference_step`.  The flat range
    also writes the side walls between rows; they are put back from ``u``.
    """
    ny, nx = u.shape
    new = np.empty((ny, nx))
    new[0], new[-1] = u[0], u[-1]
    f, lo, hi = u.reshape(-1), nx + 1, (ny - 1) * nx - 1
    acc = new.reshape(-1)[lo:hi]
    np.add(f[lo + nx : hi + nx], f[lo - nx : hi - nx], out=acc)
    np.add(acc, f[lo + 1 : hi + 1], out=acc)
    np.add(acc, f[lo - 1 : hi - 1], out=acc)
    np.multiply(acc, 0.25, out=acc)
    new[1:-1, 0], new[1:-1, -1] = u[1:-1, 0], u[1:-1, -1]
    return new


class Jacobi2DPartition(HaloPartition):
    """One locality's block of rows (+2 halo rows) of the global grid.

    ``data`` has shape ``(local_ny + 2, nx)``: row 0 and row -1 are the
    halo rows (either a neighbour's edge or the global Dirichlet
    boundary).  Column 0 and -1 are the global Dirichlet side walls and
    are never written.  The block above is the ``"up"`` neighbour; a
    ``None`` neighbour is the global boundary, whose resident halo row is
    already correct and constant.
    """

    sides = ("up", "down")
    deposit_action = "deposit_halo_row"
    send_method = "send_edges"

    deposit_halo_row = HaloPartition.deposit
    connect_neighbors = HaloPartition.connect_here

    def __init__(self, data: np.ndarray, cost_per_step: float = 0.0) -> None:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] < 3 or data.shape[1] < 3:
            raise ValidationError(f"partition needs >= 3x3 incl. halos, got {data.shape}")
        super().__init__(np.array(data, copy=True, order="C"), cost_per_step)

    def send_edges(self, step: int) -> None:
        """Ship current edge rows to the neighbours that exist."""
        self.mark_read("u")
        self._ship_edges(
            step, np.array(self.u[1], copy=True), np.array(self.u[-2], copy=True)
        )

    def advance(self, t: int, up_row, down_row) -> int:
        """Apply step ``t`` given the halo rows; send edges for ``t+1``."""
        self._begin_step(t)
        if up_row is not None:
            self.u[0, :] = up_row
        if down_row is not None:
            self.u[-1, :] = down_row
        self.u = _sweep(self.u)
        return self._end_step()

    def interior(self) -> np.ndarray:
        """This partition's owned rows (without halo rows): a read-only
        view, since a stepped level's interior is never written again."""
        self.mark_read("u")
        rows = self.u[1:-1]
        rows.flags.writeable = False
        return rows

    def local_residual(self) -> float:
        """Sum of squared Jacobi residuals over owned interior cells."""
        self.mark_read("u")
        diff = _sweep(self.u)[1:-1, 1:-1] - self.u[1:-1, 1:-1]
        return float(np.sum(diff * diff))


class DistributedJacobi2D(HaloDriver):
    """Driver: split ``(ny, nx)`` rows over the runtime's localities.

    Unlike heat1d's periodic ring, the row blocks have ends: the missing
    side is the constant Dirichlet boundary, never shipped.
    """

    periodic = False
    connect_action = "connect_neighbors"
    gather_action = "interior"

    def __init__(
        self,
        runtime: Runtime,
        ny: int,
        nx: int,
        partitions_per_locality: int = 1,
        cost_per_step: float = 0.0,
    ) -> None:
        super().__init__(runtime, partitions_per_locality, cost_per_step)
        interior_rows = ny - 2
        if interior_rows < self.n_partitions or interior_rows % self.n_partitions != 0:
            raise ValidationError(
                f"{interior_rows} interior rows do not split evenly into "
                f"{self.n_partitions} partitions"
            )
        if nx < 3:
            raise ValidationError("grid must have at least 3 columns")
        self.ny = ny
        self.nx = nx
        self.rows_per_part = interior_rows // self.n_partitions

    def initialize(self, field: np.ndarray) -> None:
        field = np.asarray(field, dtype=np.float64)
        if field.shape != (self.ny, self.nx):
            raise ValidationError(
                f"expected field of shape ({self.ny}, {self.nx}), got {field.shape}"
            )
        self._field_top = np.array(field[0, :], copy=True)
        self._field_bottom = np.array(field[-1, :], copy=True)
        rows = self.rows_per_part
        self._wire(
            # Each block takes one halo row on either side.
            Jacobi2DPartition(field[p * rows : (p + 1) * rows + 2, :], self.cost_per_step)
            for p in range(self.n_partitions)
        )

    def solution(self) -> np.ndarray:
        """Assemble the global field (incl. Dirichlet boundary rows)."""
        blocks = self._gather()
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
