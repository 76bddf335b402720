"""Set-associative cache simulator: deriving the stencil's memory traffic.

The roofline analysis of Sec. V-B rests on an assumption -- "three memory
transfers per lattice-site update, provided three rows fit in cache" --
and Sec. VII-B's surprises (implicit blocking, the 5-transfer regime for
oversized rows) are all statements about what a cache actually does to
the 5-point access stream.  This module checks those statements
mechanistically: an LRU, write-back/write-allocate, set-associative
cache runs the exact access trace of a 2D Jacobi sweep and reports bytes
moved to/from memory per lattice-site update.

The simulator is deliberately small-scale (counts, not timing); tests
use it to *derive* the 24 B/LUP (rows fit), 40 B/LUP (rows too big) and
16 B/LUP (non-temporal stores) figures the analytic cost model uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TopologyError

__all__ = ["CacheSim", "CacheStats", "jacobi_row_traffic", "jacobi_blocked_traffic"]


@dataclass
class CacheStats:
    """Traffic accounting for one simulated access stream."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    bytes_from_memory: int = 0
    bytes_to_memory: int = 0


class CacheSim:
    """LRU set-associative cache, write-back + (optional) write-allocate.

    Addresses are byte addresses; each access touches one line (the
    stencil trace only issues element-sized, aligned accesses).
    """

    def __init__(
        self,
        size_bytes: int,
        line_bytes: int = 64,
        associativity: int = 8,
        write_allocate: bool = True,
    ) -> None:
        if size_bytes <= 0 or line_bytes <= 0 or associativity <= 0:
            raise TopologyError("cache geometry must be positive")
        if size_bytes % (line_bytes * associativity) != 0:
            raise TopologyError(
                f"size {size_bytes} not divisible into {associativity}-way "
                f"sets of {line_bytes}-byte lines"
            )
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.write_allocate = write_allocate
        self.n_sets = size_bytes // (line_bytes * associativity)
        # Per set: ordered dict of tag -> dirty flag; insertion order is
        # recency order (last = most recent).
        self._sets: list[dict[int, bool]] = [dict() for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self.line_bytes
        return line % self.n_sets, line // self.n_sets

    def _touch(self, cache_set: dict[int, bool], tag: int) -> None:
        dirty = cache_set.pop(tag)
        cache_set[tag] = dirty  # reinsert as most recent

    def _fill(self, cache_set: dict[int, bool], tag: int, dirty: bool) -> None:
        if len(cache_set) >= self.associativity:
            victim_tag, victim_dirty = next(iter(cache_set.items()))
            del cache_set[victim_tag]
            if victim_dirty:
                self.stats.writebacks += 1
                self.stats.bytes_to_memory += self.line_bytes
        cache_set[tag] = dirty

    def read(self, address: int, size: int = 8) -> bool:
        """Simulate a load; returns True on hit."""
        self.stats.accesses += 1
        set_index, tag = self._locate(address)
        cache_set = self._sets[set_index]
        if tag in cache_set:
            self.stats.hits += 1
            self._touch(cache_set, tag)
            return True
        self.stats.misses += 1
        self.stats.bytes_from_memory += self.line_bytes
        self._fill(cache_set, tag, dirty=False)
        return False

    def write(self, address: int, size: int = 8) -> bool:
        """Simulate a store; returns True on hit."""
        self.stats.accesses += 1
        set_index, tag = self._locate(address)
        cache_set = self._sets[set_index]
        if tag in cache_set:
            self.stats.hits += 1
            self._touch(cache_set, tag)
            cache_set[tag] = True  # mark dirty (keeps recency position)
            return True
        self.stats.misses += 1
        if self.write_allocate:
            # Write miss: fetch the line, then dirty it.
            self.stats.bytes_from_memory += self.line_bytes
            self._fill(cache_set, tag, dirty=True)
        else:
            # Non-temporal / streaming store: straight to memory.
            self.stats.bytes_to_memory += size
        return False

    def flush(self) -> None:
        """Write back all dirty lines (end-of-run accounting)."""
        for cache_set in self._sets:
            for tag, dirty in cache_set.items():
                if dirty:
                    self.stats.writebacks += 1
                    self.stats.bytes_to_memory += self.line_bytes
            cache_set.clear()

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)


def jacobi_row_traffic(
    cache: CacheSim,
    ny: int,
    nx: int,
    elem_bytes: int = 8,
    sweeps: int = 1,
    warmup_sweeps: int = 1,
) -> float:
    """Run the exact 5-point row-sweep trace; return bytes/LUP.

    The trace mirrors Listing 2's per-site loop: for each interior row
    ``y`` and site ``x``, load ``curr[y-1][x]``, ``curr[y+1][x]``,
    ``curr[y][x-1]``, ``curr[y][x+1]`` and store ``next[y][x]``.  The two
    buffers ping-pong between sweeps.  ``warmup_sweeps`` run first so
    cold-start misses do not pollute the steady-state measurement.
    """
    if ny < 3 or nx < 3:
        raise TopologyError("grid must be at least 3x3")
    if sweeps < 1 or warmup_sweeps < 0:
        raise TopologyError("sweep counts must be positive")
    row_bytes = nx * elem_bytes
    base_a = 0
    base_b = ny * row_bytes  # the second buffer right after the first

    def sweep(src: int, dst: int) -> None:
        for y in range(1, ny - 1):
            for x in range(1, nx - 1):
                cache.read(src + (y - 1) * row_bytes + x * elem_bytes, elem_bytes)
                cache.read(src + (y + 1) * row_bytes + x * elem_bytes, elem_bytes)
                cache.read(src + y * row_bytes + (x - 1) * elem_bytes, elem_bytes)
                cache.read(src + y * row_bytes + (x + 1) * elem_bytes, elem_bytes)
                cache.write(dst + y * row_bytes + x * elem_bytes, elem_bytes)

    buffers = (base_a, base_b)
    for t in range(warmup_sweeps):
        sweep(buffers[t % 2], buffers[(t + 1) % 2])
    # Steady-state measurement.
    before_from = cache.stats.bytes_from_memory
    before_to = cache.stats.bytes_to_memory
    for t in range(warmup_sweeps, warmup_sweeps + sweeps):
        sweep(buffers[t % 2], buffers[(t + 1) % 2])
    moved = (
        cache.stats.bytes_from_memory
        - before_from
        + cache.stats.bytes_to_memory
        - before_to
    )
    lups = (ny - 2) * (nx - 2) * sweeps
    return moved / lups


def jacobi_blocked_traffic(
    cache: CacheSim,
    ny: int,
    nx: int,
    tile_nx: int,
    elem_bytes: int = 8,
    sweeps: int = 1,
    warmup_sweeps: int = 1,
) -> float:
    """The *explicitly cache-blocked* sweep's traffic in bytes/LUP.

    Instead of streaming whole rows, the sweep processes column tiles of
    ``tile_nx`` elements: all rows of one tile before moving right.
    When full rows overflow the cache (the 5-transfers regime of
    :func:`jacobi_row_traffic`), tiling restores row reuse inside each
    tile and recovers the 3-transfers figure -- the mechanism behind the
    paper's "a cache blocked version ... essentially reduces the number
    of memory transfers per iteration".  It is a model of that order
    only: the repository's Jacobi kernels block by L2-sized runs of whole
    rows instead (:mod:`repro.stencil.jacobi2d_dist`).
    """
    if ny < 3 or nx < 3:
        raise TopologyError("grid must be at least 3x3")
    if tile_nx < 2:
        raise TopologyError("tile width must be >= 2")
    if sweeps < 1 or warmup_sweeps < 0:
        raise TopologyError("sweep counts must be positive")
    row_bytes = nx * elem_bytes
    base_a = 0
    base_b = ny * row_bytes

    def sweep(src: int, dst: int) -> None:
        for x_lo in range(1, nx - 1, tile_nx):
            x_hi = min(x_lo + tile_nx, nx - 1)
            for y in range(1, ny - 1):
                for x in range(x_lo, x_hi):
                    cache.read(src + (y - 1) * row_bytes + x * elem_bytes, elem_bytes)
                    cache.read(src + (y + 1) * row_bytes + x * elem_bytes, elem_bytes)
                    cache.read(src + y * row_bytes + (x - 1) * elem_bytes, elem_bytes)
                    cache.read(src + y * row_bytes + (x + 1) * elem_bytes, elem_bytes)
                    cache.write(dst + y * row_bytes + x * elem_bytes, elem_bytes)

    buffers = (base_a, base_b)
    for t in range(warmup_sweeps):
        sweep(buffers[t % 2], buffers[(t + 1) % 2])
    before_from = cache.stats.bytes_from_memory
    before_to = cache.stats.bytes_to_memory
    for t in range(warmup_sweeps, warmup_sweeps + sweeps):
        sweep(buffers[t % 2], buffers[(t + 1) % 2])
    moved = (
        cache.stats.bytes_from_memory
        - before_from
        + cache.stats.bytes_to_memory
        - before_to
    )
    lups = (ny - 2) * (nx - 2) * sweeps
    return moved / lups
