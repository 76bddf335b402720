"""Virtual Node Scheme (VNS) data layout.

The paper vectorizes its 2D stencil with the Virtual Node Scheme of the
Grid QCD library [Boyle et al. 2015]: a row's interior is split into
``lanes`` equal sub-rows ("virtual nodes") and element ``j`` of every
sub-row is packed into one SIMD register, so the x-neighbourhood of a
whole register is again a register -- *except* at sub-row edges, where a
lane's neighbour lives in the adjacent lane.  Those edges are handled by
per-lane halo columns that must be refreshed by a lane shuffle after
every update -- Listing 2's ``helper<Container>::shuffle(next, ny)``.

Layout of one packed row (``chunk = interior_width / lanes``)::

    packed[j, l]  ==  row[1 + l*chunk + (j-1)]      for j in 1..chunk
    packed[0, l]  ==  left  halo of virtual node l
    packed[chunk+1, l] == right halo of virtual node l

With the halos fresh, ``packed[j-1]`` / ``packed[j+1]`` are exactly the
x-1 / x+1 neighbours of ``packed[j]`` for every interior ``j`` -- the
stencil update needs no per-element shuffles.
"""

from __future__ import annotations

import numpy as np

from ..errors import LayoutError

__all__ = ["VnsLayout"]


class VnsLayout:
    """VNS packing/unpacking and halo maintenance for rows of fixed width.

    ``width`` counts the full row *including* the two global boundary
    columns (Dirichlet halo), matching the paper's grids.
    """

    def __init__(self, width: int, lanes: int) -> None:
        if lanes < 1:
            raise LayoutError(f"lanes must be >= 1, got {lanes}")
        if width < 3:
            raise LayoutError(f"row width must be >= 3 (2 halo + interior), got {width}")
        interior = width - 2
        if interior % lanes != 0:
            raise LayoutError(
                f"interior width {interior} is not divisible by {lanes} lanes"
            )
        self.width = width
        self.lanes = lanes
        self.chunk = interior // lanes

    # Packing ------------------------------------------------------------------
    def pack_row(self, row: np.ndarray) -> np.ndarray:
        """Pack a 1D row of ``width`` elements into VNS layout.

        Returns a ``(chunk + 2, lanes)`` array with halos already fresh.
        """
        row = np.asarray(row)
        if row.ndim != 1 or row.shape[0] != self.width:
            raise LayoutError(
                f"expected row of shape ({self.width},), got {row.shape}"
            )
        interior = row[1:-1].reshape(self.lanes, self.chunk).T
        packed = np.empty((self.chunk + 2, self.lanes), dtype=row.dtype)
        packed[1:-1, :] = interior
        self._fill_halos(packed, left_boundary=row[0], right_boundary=row[-1])
        return packed

    def unpack_row(self, packed: np.ndarray) -> np.ndarray:
        """Invert :meth:`pack_row`; global boundaries come from the halos
        of the edge lanes."""
        self._check_packed(packed)
        row = np.empty(self.width, dtype=packed.dtype)
        row[1:-1] = packed[1:-1, :].T.reshape(-1)
        row[0] = packed[0, 0]  # lane 0's left halo is the global boundary
        row[-1] = packed[-1, -1]  # last lane's right halo likewise
        return row

    # Halo maintenance ----------------------------------------------------------
    def refresh_halo(self, packed: np.ndarray) -> None:
        """Refresh per-lane halo columns in place (Listing 2's shuffle).

        Interior lanes copy their neighbours' edge elements; the outermost
        halos (global Dirichlet boundary) are left untouched.
        """
        self._check_packed(packed)
        if self.lanes > 1:
            # Left halo of lane l  <- last interior element of lane l-1.
            packed[0, 1:] = packed[-2, :-1]
            # Right halo of lane l <- first interior element of lane l+1.
            packed[-1, :-1] = packed[1, 1:]

    def _fill_halos(
        self, packed: np.ndarray, left_boundary: float, right_boundary: float
    ) -> None:
        packed[0, 0] = left_boundary
        packed[-1, -1] = right_boundary
        if self.lanes > 1:
            packed[0, 1:] = packed[-2, :-1]
            packed[-1, :-1] = packed[1, 1:]

    def _check_packed(self, packed: np.ndarray) -> None:
        expected = (self.chunk + 2, self.lanes)
        if packed.shape != expected:
            raise LayoutError(f"expected packed shape {expected}, got {packed.shape}")

    # Grid-level helpers ----------------------------------------------------------
    def pack_grid(self, grid: np.ndarray) -> np.ndarray:
        """Pack every row of a 2D ``(ny, width)`` grid -> ``(ny, chunk+2, lanes)``."""
        grid = np.asarray(grid)
        if grid.ndim != 2 or grid.shape[1] != self.width:
            raise LayoutError(
                f"expected grid of shape (ny, {self.width}), got {grid.shape}"
            )
        packed = np.empty((grid.shape[0], self.chunk + 2, self.lanes), dtype=grid.dtype)
        for y in range(grid.shape[0]):
            packed[y] = self.pack_row(grid[y])
        return packed

    def unpack_grid(self, packed: np.ndarray) -> np.ndarray:
        """Invert :meth:`pack_grid`."""
        if packed.ndim != 3 or packed.shape[1:] != (self.chunk + 2, self.lanes):
            raise LayoutError(
                f"expected packed grid (ny, {self.chunk + 2}, {self.lanes}), "
                f"got {packed.shape}"
            )
        grid = np.empty((packed.shape[0], self.width), dtype=packed.dtype)
        for y in range(packed.shape[0]):
            grid[y] = self.unpack_row(packed[y])
        return grid

    def __repr__(self) -> str:  # pragma: no cover
        return f"VnsLayout(width={self.width}, lanes={self.lanes}, chunk={self.chunk})"
