"""2D Jacobi stencil (paper Sec. IV-B, V-B, VII-B; Listing 2).

The 5-point update of Eq. (4)::

    next(x, y) = (curr(x, y+1) + curr(x, y-1)
                  + curr(x+1, y) + curr(x-1, y)) * 0.25

over a ``(ny, nx)`` grid with Dirichlet boundaries, iterated with
ping-pong buffers.  Two kernels, one generic driver -- exactly the shape
of Listing 2:

* ``mode="auto"``: the row-major layout the compiler's auto-vectorizer
  sees.  Each HPX-thread updates its chunk of rows with the distributed
  solver's flat passes (:func:`~repro.stencil.jacobi2d_dist._neighbour_sum`),
  in L2-sized runs of rows, from level t straight into level t+1.
* ``mode="simd"``: the explicitly vectorized kernel over the Virtual
  Node Scheme layout.  Every row update is followed by the halo shuffle
  (``helper<Container>::shuffle`` -- here
  :meth:`~repro.simd.layout.VnsLayout.refresh_halo`).

Both kernels take the reference's operands in the reference's order, so
in either dtype both equal :func:`jacobi_reference_step` computed in that
dtype bit for bit, which the tests verify.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..errors import ValidationError
from ..runtime import context as ctx
from ..runtime.algorithms import ExecutionPolicy, for_each, for_each_block, seq
from ..simd.isa import Isa
from .grid import GridPair
from .jacobi2d_dist import _chunk_rows, _neighbour_sum

__all__ = ["Jacobi2D", "jacobi_reference_step", "update_row_vns"]

Mode = Literal["auto", "simd"]


def jacobi_reference_step(field: np.ndarray) -> np.ndarray:
    """One whole-grid Jacobi sweep, plain NumPy (ground truth)."""
    new = np.array(field, copy=True)
    new[1:-1, 1:-1] = 0.25 * (
        field[2:, 1:-1] + field[:-2, 1:-1] + field[1:-1, 2:] + field[1:-1, :-2]
    )
    return new


def update_row_vns(curr: np.ndarray, nxt: np.ndarray, y: int, layout) -> None:
    """Row update on the VNS pack layout plus the halo shuffle.

    ``curr``/``nxt`` are ``(ny, chunk+2, lanes)`` buffers.  The x-1/x+1
    neighbours of packed position ``j`` are positions ``j-1``/``j+1`` --
    provided the per-lane halos are fresh, which is what the trailing
    :meth:`refresh_halo` guarantees for the *next* consumer of this row.
    Operands go in the reference's order (y+1, y-1, x+1, x-1), so the
    VNS kernel's bits are the scalar kernel's.
    """
    nxt[y, 1:-1, :] = 0.25 * (
        curr[y + 1, 1:-1, :] + curr[y - 1, 1:-1, :] + curr[y, 2:, :] + curr[y, :-2, :]
    )
    layout.refresh_halo(nxt[y])


class Jacobi2D:
    """The generic 2D stencil application of Listing 2.

    ``Container`` genericity becomes the ``mode`` switch: ``"auto"``
    runs the scalar-layout kernel, ``"simd"`` the explicitly vectorized
    VNS kernel with lanes taken from ``isa`` (e.g. 8 for AVX2 floats,
    16 for 512-bit SVE floats).
    """

    def __init__(
        self,
        ny: int,
        nx: int,
        dtype=np.float32,
        mode: Mode = "auto",
        isa: Isa | None = None,
        cost_per_row: float = 0.0,
    ) -> None:
        if mode not in ("auto", "simd"):
            raise ValidationError(f"mode must be 'auto' or 'simd', got {mode!r}")
        if mode == "simd" and isa is None:
            raise ValidationError("simd mode needs an ISA to size its packs")
        self.ny = ny
        self.nx = nx
        self.dtype = np.dtype(dtype)
        self.mode: Mode = mode
        self.isa = isa
        self.lanes = isa.lanes(self.dtype) if (mode == "simd" and isa) else 1
        layout = "vns" if mode == "simd" else "scalar"
        self.U = GridPair(ny, nx, self.dtype, layout=layout, lanes=self.lanes)
        #: Virtual compute seconds one row update costs (cost-model hook).
        self.cost_per_row = float(cost_per_row)
        self.steps_done = 0

    # Setup -------------------------------------------------------------------
    def initialize(self, field: np.ndarray | None = None) -> None:
        """Load an initial field; default is the hot-top-edge problem
        (interior 0, top boundary 1) the examples use."""
        if field is None:
            field = np.zeros((self.ny, self.nx))
            field[0, :] = 1.0
        field = np.asarray(field, dtype=self.dtype)
        if field.shape != (self.ny, self.nx):
            raise ValidationError(
                f"expected field of shape ({self.ny}, {self.nx}), got {field.shape}"
            )
        self.U.fill_from(field)
        self.steps_done = 0

    # The Listing 2 kernel -----------------------------------------------------
    def stencil_update(self, y: int, t: int) -> None:
        """VNS layout: update row ``y`` from time level ``t`` to ``t+1``
        (the halo shuffle makes this kernel inherently per-row)."""
        curr = self.U.current(t)
        update_row_vns(curr.data, self.U.next(t).data, y, curr.vns)
        if self.cost_per_row:
            ctx.add_cost(self.cost_per_row)

    def stencil_update_block(self, rows: range, t: int) -> None:
        """Scalar layout: update a block of rows from ``t`` to ``t+1``.

        The rows go in runs of about 512 KiB
        (:func:`~repro.stencil.jacobi2d_dist._chunk_rows`), each summed by
        :func:`~repro.stencil.jacobi2d_dist._neighbour_sum` from level
        ``t``'s flat array straight into level ``t+1``'s and scaled there,
        so a run stays in L2 across the passes.  A flat range also writes
        the side walls between its rows; they are copied back from level
        ``t`` last.  A block reads only level ``t``, so parallel blocks
        never race.  Costs ``cost_per_row`` per row.
        """
        curr = self.U.current(t).data
        nxt = self.U.next(t).data
        nx, f, g = self.nx, curr.reshape(-1), nxt.reshape(-1)
        y0, y1 = rows.start, rows.stop
        step = _chunk_rows(nx, self.dtype.itemsize)
        for r in range(y0, y1, step):
            lo, hi = r * nx + 1, min(r + step, y1) * nx - 1
            out = g[lo:hi]
            _neighbour_sum(f, nx, lo, hi, out)
            np.multiply(out, 0.25, out=out)
        nxt[y0:y1, :: nx - 1] = curr[y0:y1, :: nx - 1]
        if self.cost_per_row:
            ctx.add_cost(self.cost_per_row * len(rows))

    def run(self, steps: int, policy: ExecutionPolicy = seq) -> np.ndarray:
        """Iterate ``steps`` sweeps driving rows through ``for_each``.

        This is the timed region of Listing 2: an outer time loop, an
        inner ``hpx::parallel::for_each(policy, rows, stencil_update)``.
        The layout picks the body: on the scalar layout each chunk of
        rows is one vectorized block update
        (:func:`~repro.runtime.algorithms.for_each_block` -- same
        chunking, one HPX-thread per chunk); the VNS layout runs per row.
        """
        if steps < 0:
            raise ValidationError("steps must be non-negative")
        for t in range(self.steps_done, self.steps_done + steps):
            if self.mode == "auto":
                for_each_block(
                    policy,
                    1,
                    self.ny - 1,
                    lambda rows, t=t: self.stencil_update_block(rows, t),
                )
            else:
                for_each(
                    policy,
                    range(1, self.ny - 1),
                    lambda y, t=t: self.stencil_update(y, t),
                )
        self.steps_done += steps
        return self.solution()

    def residual(self) -> float:
        """RMS change one more sweep would make (convergence metric)."""
        field = self.solution().astype(np.float64)
        sweep = jacobi_reference_step(field)
        diff = sweep[1:-1, 1:-1] - field[1:-1, 1:-1]
        return float(np.sqrt(np.mean(diff * diff)))

    # Results ----------------------------------------------------------------
    def solution(self) -> np.ndarray:
        """The current field as a scalar ``(ny, nx)`` array."""
        return self.U.current(self.steps_done).to_scalar_array()

    @property
    def lattice_site_updates(self) -> int:
        """Interior LUPs performed so far (the paper's LUP metric)."""
        return self.steps_done * (self.ny - 2) * (self.nx - 2)
