"""2D Jacobi stencil (paper Sec. IV-B, V-B, VII-B; Listing 2).

The 5-point update of Eq. (4)::

    next(x, y) = (curr(x, y+1) + curr(x, y-1)
                  + curr(x+1, y) + curr(x-1, y)) * 0.25

over a ``(ny, nx)`` grid with Dirichlet boundaries, iterated with
ping-pong buffers.  Two kernels, one generic driver -- exactly the shape
of Listing 2:

* ``mode="auto"``: the row-major layout the compiler's auto-vectorizer
  sees.  Each HPX-thread updates its chunk of rows as one contiguous
  block of slice arithmetic.
* ``mode="simd"``: the explicitly vectorized kernel over the Virtual
  Node Scheme layout.  Every row update is followed by the halo shuffle
  (``helper<Container>::shuffle`` -- here
  :meth:`~repro.simd.layout.VnsLayout.refresh_halo`).

Both kernels produce bit-comparable fields (up to dtype rounding), which
the tests verify against each other and against a dense reference.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..errors import ValidationError
from ..runtime import context as ctx
from ..runtime.algorithms import ExecutionPolicy, for_each, for_each_block, seq
from ..simd.isa import Isa
from .grid import GridPair

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
    """
    nxt[y, 1:-1, :] = 0.25 * (
        curr[y, :-2, :] + curr[y, 2:, :] + curr[y - 1, 1:-1, :] + curr[y + 1, 1:-1, :]
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

        Jacobi reads only the previous time level, so a run of interior
        rows updates as one 2D slice operation, in the operand order
        :meth:`run_blocked` shares.  Costs ``cost_per_row`` per row.
        """
        curr = self.U.current(t).data
        nxt = self.U.next(t).data
        y0, y1 = rows.start, rows.stop
        nxt[y0:y1, 1:-1] = 0.25 * (
            curr[y0:y1, :-2]
            + curr[y0:y1, 2:]
            + curr[y0 - 1 : y1 - 1, 1:-1]
            + curr[y0 + 1 : y1 + 1, 1:-1]
        )
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

    def run_blocked(self, steps: int, tile_nx: int) -> np.ndarray:
        """Iterate using the explicitly cache-blocked sweep order.

        Columns are processed in tiles of ``tile_nx``; each tile walks
        all rows before moving right.  Jacobi reads only the previous
        time level, so the result is *identical* to :meth:`run` -- the
        ordering exists purely to keep three tile-rows cache-resident
        when full rows do not fit (the paper's "cache blocked version of
        2D stencil"; see
        :func:`repro.hardware.cachesim.jacobi_blocked_traffic` for the
        traffic this buys).  Scalar layout only.
        """
        if self.mode != "auto":
            raise ValidationError("run_blocked supports the scalar layout only")
        if steps < 0:
            raise ValidationError("steps must be non-negative")
        if tile_nx < 2:
            raise ValidationError("tile width must be >= 2")
        for t in range(self.steps_done, self.steps_done + steps):
            curr = self.U.current(t).data
            nxt = self.U.next(t).data
            for x_lo in range(1, self.nx - 1, tile_nx):
                x_hi = min(x_lo + tile_nx, self.nx - 1)
                # Same operand order as stencil_update_block: the blocked
                # sweep is bit-identical, not merely close.
                nxt[1:-1, x_lo:x_hi] = 0.25 * (
                    curr[1:-1, x_lo - 1 : x_hi - 1]
                    + curr[1:-1, x_lo + 1 : x_hi + 1]
                    + curr[:-2, x_lo:x_hi]
                    + curr[2:, x_lo:x_hi]
                )
        self.steps_done += steps
        return self.solution()

    def residual(self) -> float:
        """RMS change one more sweep would make (convergence metric)."""
        field = self.solution().astype(np.float64)
        sweep = jacobi_reference_step(field)
        diff = sweep[1:-1, 1:-1] - field[1:-1, 1:-1]
        return float(np.sqrt(np.mean(diff * diff)))

    def run_until_converged(
        self,
        tol: float,
        policy: ExecutionPolicy = seq,
        check_every: int = 50,
        max_steps: int = 1_000_000,
    ) -> tuple[np.ndarray, int]:
        """Iterate until the residual drops below ``tol``.

        Returns ``(field, total steps run)``.  Raises
        :class:`ValidationError` if ``max_steps`` sweeps do not reach
        ``tol`` (Jacobi converges slowly; pick tolerances accordingly).
        """
        if tol <= 0:
            raise ValidationError("tolerance must be positive")
        if check_every < 1 or max_steps < 1:
            raise ValidationError("check_every and max_steps must be >= 1")
        start = self.steps_done
        while self.steps_done - start < max_steps:
            budget = min(check_every, max_steps - (self.steps_done - start))
            self.run(budget, policy)
            if self.residual() < tol:
                return self.solution(), self.steps_done - start
        raise ValidationError(
            f"no convergence to {tol:g} within {max_steps} sweeps "
            f"(residual {self.residual():g})"
        )

    # Results ----------------------------------------------------------------
    def solution(self) -> np.ndarray:
        """The current field as a scalar ``(ny, nx)`` array."""
        return self.U.current(self.steps_done).to_scalar_array()

    @property
    def lattice_site_updates(self) -> int:
        """Interior LUPs performed so far (the paper's LUP metric)."""
        return self.steps_done * (self.ny - 2) * (self.nx - 2)

    @property
    def grid_bytes(self) -> int:
        """Bytes of one buffer (the paper's "9 GB worth of DRAM" check)."""
        return self.U[0].nbytes
