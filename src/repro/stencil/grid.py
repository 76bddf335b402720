"""The custom ``Grid`` container of Listing 2.

``Grid`` abstracts the data layout of the stencil away from the kernel:
the same update code runs over a plain row-major array ("scalar", what
the auto-vectorizer sees) or over the Virtual-Node-Scheme pack layout
("vns", what explicit vectorization uses).  ``GridPair`` is the
double-buffered pair the Jacobi iteration ping-pongs between
(``U[t % 2]`` / ``U[(t+1) % 2]`` in Listing 2).
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..errors import LayoutError, ValidationError
from ..simd.layout import VnsLayout

__all__ = ["Grid", "GridPair"]

Layout = Literal["scalar", "vns"]


class Grid:
    """One 2D field of shape ``(ny, nx)`` (including boundary cells)."""

    def __init__(
        self,
        ny: int,
        nx: int,
        dtype=np.float64,
        layout: Layout = "scalar",
        lanes: int = 1,
    ) -> None:
        if ny < 3 or nx < 3:
            raise LayoutError(f"grid needs at least 3x3 cells, got {ny}x{nx}")
        dt = np.dtype(dtype)
        if dt.type not in (np.float32, np.float64):
            raise ValidationError(f"unsupported dtype {dt}")
        self.ny = ny
        self.nx = nx
        self.dtype = dt
        self.layout: Layout = layout
        if layout == "scalar":
            self._data = np.zeros((ny, nx), dtype=dt)
            self._vns: VnsLayout | None = None
        elif layout == "vns":
            self._vns = VnsLayout(nx, lanes)
            self._data = np.zeros((ny, self._vns.chunk + 2, lanes), dtype=dt)
        else:
            raise LayoutError(f"unknown layout {layout!r}")

    # Listing 2 surface ---------------------------------------------------------
    def row_size(self) -> int:
        """Row length in elements (``curr.row_size()``)."""
        return self.nx

    # Bulk access ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The raw backing array (layout-dependent shape)."""
        return self._data

    @property
    def vns(self) -> VnsLayout:
        if self._vns is None:
            raise LayoutError("grid is in scalar layout; no VNS descriptor")
        return self._vns

    def fill_from(self, field: np.ndarray) -> None:
        """Load a scalar ``(ny, nx)`` field into this grid's layout."""
        field = np.asarray(field, dtype=self.dtype)
        if field.shape != (self.ny, self.nx):
            raise LayoutError(
                f"expected field of shape ({self.ny}, {self.nx}), got {field.shape}"
            )
        if self.layout == "scalar":
            self._data[...] = field
        else:
            self._data[...] = self.vns.pack_grid(field)

    def to_scalar_array(self) -> np.ndarray:
        """A scalar ``(ny, nx)`` copy regardless of layout."""
        if self.layout == "scalar":
            return np.array(self._data, copy=True)
        return self.vns.unpack_grid(self._data)

    @property
    def nbytes(self) -> int:
        return self._data.nbytes

    def __repr__(self) -> str:  # pragma: no cover
        return f"Grid({self.ny}x{self.nx}, {self.dtype}, {self.layout})"


class GridPair:
    """The double-buffered ``array_t<Container>`` of Listing 2."""

    def __init__(
        self,
        ny: int,
        nx: int,
        dtype=np.float64,
        layout: Layout = "scalar",
        lanes: int = 1,
    ) -> None:
        self.grids = (
            Grid(ny, nx, dtype, layout, lanes),
            Grid(ny, nx, dtype, layout, lanes),
        )

    def __getitem__(self, index: int) -> Grid:
        """``U[t % 2]`` indexing, exactly as in Listing 2."""
        return self.grids[index % 2]

    def current(self, t: int) -> Grid:
        return self.grids[t % 2]

    def next(self, t: int) -> Grid:
        return self.grids[(t + 1) % 2]

    def fill_from(self, field: np.ndarray) -> None:
        """Initialise both buffers (boundaries must exist in both)."""
        for grid in self.grids:
            grid.fill_from(field)
