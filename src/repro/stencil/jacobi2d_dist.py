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

**A block is swept in place.**  A step overwrites its partition's block
(:func:`_sweep`); the halo rows 0 and -1 are written when the next
step's halos land or the residual reads them.  So the gather hands out
a read-only view of the owned rows that is valid until its partition's
next step, and both consumers copy it at once: the driver's ``vstack``,
and across processes the reply, pickled when the action returns.

**The sweep streams its block once, in place.**  :func:`_sweep` runs its
four flat passes chunk by chunk over L2-sized runs of rows, accumulating
into one chunk-sized scratch buffer, and the last pass writes the chunk
straight back into the block it was read from.  Beyond L2 a site update
costs about two 8-byte transfers, not the three of the paper's
roofline: a read of ``u``, and a write back to lines the first pass
just brought into L2, so with no write-allocate.  A step allocates no
level.  The chunk
size is :data:`_CHUNK_BYTES`, a constant backed by a measured sweep
(docs/performance.md).
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..runtime.futures import when_all
from ..runtime.runtime import Runtime
from .halo import HaloDriver, HaloPartition

__all__ = ["Jacobi2DPartition", "DistributedJacobi2D"]


#: Bytes of the block one chunk of :func:`_sweep` covers: a quarter
#: of a 2 MiB L2, so the chunk and the rows of ``u`` it reads stay in L2
#: across the four passes.  Measured at nx = 2048: 8-64 rows alike, 128
#: rows (a whole L2) loses most of the gain (docs/performance.md).
_CHUNK_BYTES = 1 << 19


def _chunk_rows(nx: int, itemsize: int) -> int:
    """Rows of width ``nx`` and ``itemsize``-byte items in one chunk."""
    return max(1, _CHUNK_BYTES // (itemsize * nx))


def _scratch(shape: tuple[int, int]) -> np.ndarray:
    """:func:`_sweep`'s accumulator for a block of ``shape``: one chunk,
    plus the one row it holds back between chunks."""
    ny, nx = shape
    return np.empty((min(_chunk_rows(nx, 8), ny - 2) + 1) * nx)


def _neighbour_sum(f: np.ndarray, nx: int, lo: int, hi: int, out: np.ndarray) -> None:
    """Write the five-point neighbour sum of the flat sites ``lo..hi``
    of the C-ordered rows ``f`` (width ``nx``) into ``out``.

    Operands and order are the reference's -- down + up, + right, +
    left -- as three contiguous ``out=`` passes, so ``out * 0.25`` is
    bit-identical to :func:`~repro.stencil.jacobi2d.jacobi_reference_step`
    at every interior site.  The sites between two rows (the side walls)
    get sums too, which the caller discards.  ``out`` must not overlap
    ``f[lo - nx : hi + nx]``.
    """
    np.add(f[lo + nx : hi + nx], f[lo - nx : hi - nx], out=out)
    np.add(out, f[lo + 1 : hi + 1], out=out)
    np.add(out, f[lo - 1 : hi - 1], out=out)


def _sweep(u: np.ndarray, scratch: np.ndarray) -> None:
    """One Jacobi sweep of the C-ordered block ``u``, in place.

    The interior runs as :func:`_neighbour_sum`'s three passes and a
    ``x 0.25`` pass over flat ranges ``u[r, 1]`` .. ``u[r + rows - 1, -2]``:
    NumPy streams a flat slice much faster than a 2D view with a short
    inner extent.  The passes go chunk by chunk, ``rows`` rows of about
    :data:`_CHUNK_BYTES` each, accumulating into ``scratch``
    (:func:`_scratch`), so the chunk stays in L2 across all four and the
    block streams from memory once per step, not four times.  The result
    is bit-identical to
    :func:`~repro.stencil.jacobi2d.jacobi_reference_step`.

    The last pass writes the chunk back into ``u``, except the chunk's
    last row: the next chunk's first pass reads its old values as "up".
    That row goes to the held row at the end of ``scratch`` and is
    written back once the next chunk's sum is taken (its right and left
    passes start at the wall of the chunk's first row, below the held
    one).  A flat range also writes the side walls between its rows, so
    the walls are saved first and put back last.  Halo rows 0 and -1 are
    only read.
    """
    ny, nx = u.shape
    walls = u[1:-1, :: nx - 1].copy()
    f = u.reshape(-1)
    rows, end = _chunk_rows(nx, 8), (ny - 1) * nx - 1
    held, held_at = scratch[-nx:-2], 0
    for r in range(1, ny - 1, rows):
        lo, hi = r * nx + 1, min(r + rows, ny - 1) * nx - 1
        acc = scratch[: hi - lo]
        _neighbour_sum(f, nx, lo, hi, acc)
        if held_at:
            f[held_at : held_at + nx - 2] = held
        if hi == end:
            np.multiply(acc, 0.25, out=f[lo:hi])
        else:
            held_at = hi - (nx - 2)
            np.multiply(acc[: held_at - lo], 0.25, out=f[lo:held_at])
            np.multiply(acc[held_at - lo :], 0.25, out=held)
    u[1:-1, :: nx - 1] = walls


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
        #: :func:`_sweep`'s scratch, made on the first sweep: derived
        #: state, never checkpointed, and registration pickles the
        #: partition before it exists.
        self._acc: np.ndarray | None = None

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
        _sweep(self.u, self._accumulator())
        return self._end_step()

    def _accumulator(self) -> np.ndarray:
        if self._acc is None:
            self._acc = _scratch(self.u.shape)
        return self._acc

    def interior(self) -> np.ndarray:
        """This partition's owned rows (without halo rows): a read-only
        view, valid until this partition's next step sweeps the block in
        place.  The driver's ``vstack`` copies it at once; across
        processes the reply is pickled when this action returns."""
        self.mark_read("u")
        rows = self.u[1:-1]
        rows.flags.writeable = False
        return rows

    def local_residual(self) -> float:
        """Sum of squared Jacobi residuals over owned interior cells.

        Rows 0 and -1 still hold the halos the last step consumed; the
        neighbours' current edges are the next step's halos, which their
        last step shipped.  Waiting for them is cooperative, as in
        :meth:`chain_result`, and leaves them for the next ``advance``.
        """
        self.mark_write("u")
        if self.steps_done:
            for row, side in ((0, "up"), (-1, "down")):
                edge = self.halo_future(self.steps_done, side).get()  # repro-lint: disable=PX301
                if edge is not None:
                    self.u[row] = edge
        new = np.array(self.u, copy=True)
        _sweep(new, self._accumulator())  # a copy: the residual steps nothing
        diff = new[1:-1, 1:-1] - self.u[1:-1, 1:-1]
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
        component actions: one ``invoke_async`` per partition, joined
        with ``when_all`` and summed in partition order.
        """
        futures = [
            self.runtime.invoke_async(gid, "local_residual") for gid in self._gids
        ]
        total = sum(f.get() for f in when_all(futures).get())
        return float(np.sqrt(total / ((self.ny - 2) * (self.nx - 2))))
