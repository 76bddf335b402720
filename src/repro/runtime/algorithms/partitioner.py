"""Work partitioning for the parallel algorithms.

HPX's auto-partitioner aims for a few chunks per worker so stealing can
balance load without drowning the scheduler in tiny tasks; the same
heuristic lives in :func:`auto_chunk_size`.  Grain size is the lever the
paper pulls when discussing A64FX ("HPX is known to have contention
overheads when the grain size is too small") -- the grain-size ablation
benchmark sweeps exactly this.
"""

from __future__ import annotations

from ...errors import RuntimeStateError

__all__ = ["auto_chunk_size", "partition", "CHUNKS_PER_WORKER"]

#: Target chunks per worker for the auto partitioner (HPX uses 4x).
CHUNKS_PER_WORKER = 4


def auto_chunk_size(n_items: int, n_workers: int, min_chunk: int = 1) -> int:
    """Chunk size giving ~``CHUNKS_PER_WORKER`` chunks per worker."""
    if n_items < 0:
        raise RuntimeStateError("n_items must be non-negative")
    if n_workers < 1:
        raise RuntimeStateError("n_workers must be >= 1")
    if min_chunk < 1:
        raise RuntimeStateError("min_chunk must be >= 1")
    if n_items == 0:
        return min_chunk
    target_chunks = n_workers * CHUNKS_PER_WORKER
    size = -(-n_items // target_chunks)  # ceil
    return max(size, min_chunk)


def partition(start: int, stop: int, chunk_size: int) -> list[range]:
    """Cut ``[start, stop)`` into contiguous chunks of ``chunk_size``.

    The final chunk may be short.  Empty input yields no chunks.
    """
    if chunk_size < 1:
        raise RuntimeStateError(f"chunk size must be >= 1, got {chunk_size}")
    if stop < start:
        raise RuntimeStateError(f"empty-reversed range [{start}, {stop})")
    return [
        range(lo, min(lo + chunk_size, stop)) for lo in range(start, stop, chunk_size)
    ]

