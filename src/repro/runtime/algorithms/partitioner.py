"""Work partitioning for the parallel algorithms.

HPX's auto-partitioner aims for a few chunks per worker so stealing can
balance load without drowning the scheduler in tiny tasks; the same
heuristic lives in :func:`auto_chunk_size`.  Grain size is the lever the
paper pulls when discussing A64FX ("HPX is known to have contention
overheads when the grain size is too small") -- the grain-size ablation
benchmark sweeps exactly this.  :func:`static_chunks` is the other
rule: one near-equal contiguous run per owner, for data that is placed
once.
"""

from __future__ import annotations

from ...errors import RuntimeStateError

__all__ = ["auto_chunk_size", "partition", "static_chunks", "CHUNKS_PER_WORKER"]

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


def static_chunks(n_items: int, n_chunks: int) -> list[range]:
    """Split ``range(n_items)`` into ``n_chunks`` near-equal contiguous runs.

    The first ``n_items % n_chunks`` chunks get one extra element --
    OpenMP ``schedule(static)`` semantics.  Empty chunks are returned when
    ``n_chunks > n_items`` so placement stays aligned with workers.
    """
    if n_items < 0:
        raise RuntimeStateError("n_items must be non-negative")
    if n_chunks < 1:
        raise RuntimeStateError("n_chunks must be >= 1")
    base, extra = divmod(n_items, n_chunks)
    chunks: list[range] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(range(start, start + size))
        start += size
    return chunks
