"""Cache hierarchy model.

The paper's roofline analysis hinges on one cache question: *how many main
memory transfers does one stencil lattice-site update cost?*  Under the
"three rows fit in cache" assumption a 5-point update streams three rows in
and one out, but with write-allocate the store also reads its line, and the
paper folds this into "three transfers per iteration" (24 B/LUP for
doubles).  Large cache lines (A64FX's 256 B) plus hardware prefetch give the
effect of cache blocking and cut this to two transfers per iteration -- the
paper's "Expected Peak Max" and the observed ~49 % boost.

:class:`CacheHierarchy` answers exactly that question for a given row size
and element width, and exposes the classic miss-count estimate used by the
counter model (Tables III-VI).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TopologyError

__all__ = ["CacheLevel", "CacheHierarchy"]


@dataclass(frozen=True)
class CacheLevel:
    """One cache level (sizes are per the sharing group)."""

    name: str
    size_bytes: int
    line_bytes: int
    shared_by_cores: int = 1
    latency_cycles: int = 4

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0:
            raise TopologyError(f"{self.name}: sizes must be positive")
        if self.size_bytes % self.line_bytes != 0:
            raise TopologyError(f"{self.name}: size not a multiple of line size")
        if self.shared_by_cores < 1:
            raise TopologyError(f"{self.name}: shared_by_cores must be >= 1")

    @property
    def lines(self) -> int:
        return self.size_bytes // self.line_bytes

    def size_per_core(self) -> int:
        """Effective capacity available to one core when all sharers stream."""
        return self.size_bytes // self.shared_by_cores


@dataclass(frozen=True)
class CacheHierarchy:
    """An ordered tuple of cache levels, L1 first."""

    levels: tuple[CacheLevel, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise TopologyError("cache hierarchy needs at least one level")

    @property
    def l1(self) -> CacheLevel:
        return self.levels[0]

    @property
    def line_bytes(self) -> int:
        """Line size used for memory traffic (the L1/L2 line)."""
        return self.l1.line_bytes

    def effective_capacity_per_core(self) -> int:
        """Capacity one core can count on for row reuse.

        The paper's wording is "assuming the cache size is large enough to
        accommodate three rows of the grid"; in a strong-scaling run every
        core streams, so shared levels are divided among their sharers.
        """
        return max(level.size_per_core() for level in self.levels)

    # Stencil traffic analysis ---------------------------------------------
    def rows_fit(self, row_bytes: int, n_rows: int = 3) -> bool:
        """Do ``n_rows`` rows of ``row_bytes`` fit in per-core capacity?"""
        if row_bytes <= 0:
            raise TopologyError("row_bytes must be positive")
        return n_rows * row_bytes <= self.effective_capacity_per_core()

    def stencil_transfers_per_update(
        self, row_bytes: int, elem_bytes: int, prefetch_blocking: bool = False
    ) -> float:
        """Main-memory bytes per lattice-site update for a 5-point stencil.

        * rows do not fit at all  -> 5 transfers (every neighbour misses),
        * three rows fit (paper's baseline assumption) -> 3 transfers
          (one streamed read of the new row + write-allocate + write-back),
        * ``prefetch_blocking`` (large cache line + prefetcher, A64FX/TX2
          behaviour the paper observed) -> 2 transfers.

        Returns bytes/LUP (= transfers * elem_bytes).
        """
        if elem_bytes <= 0:
            raise TopologyError("elem_bytes must be positive")
        if not self.rows_fit(row_bytes, 3):
            transfers = 5.0
        elif prefetch_blocking:
            transfers = 2.0
        else:
            transfers = 3.0
        return transfers * elem_bytes
