"""The parallel algorithms the stencils drive: for_each, for_each_block.

Both share one skeleton: partition the index space, run each chunk as
an HPX-thread on the current pool, and wait for all of them.  The
``seq`` policy runs the same chunks inline on the calling thread.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, TypeVar

from ...errors import RuntimeStateError
from .. import context as ctx
from ..futures import Future, when_all
from .execution_policy import ExecutionPolicy
from .partitioner import auto_chunk_size, partition

__all__ = ["for_each", "for_each_block"]

T = TypeVar("T")


def _submit_chunks(
    policy: ExecutionPolicy,
    start: int,
    stop: int,
    chunk_body: Callable[[range], Any],
) -> list[Any]:
    """Run ``chunk_body`` over a partition of [start, stop); returns
    per-chunk results in chunk order."""
    n_items = stop - start
    frame = ctx.current_or_none()
    pool = frame.pool if frame is not None else None

    # One chunking rule for both paths: the explicit ``chunk_size`` when
    # given, the auto partitioner otherwise (sized for one worker outside
    # any runtime).  The sequential fall-back used to collapse to a
    # single chunk, so chunk-sensitive bodies (per-chunk setup cost,
    # chunk-order reductions) diverged between seq and par runs.
    workers = pool.n_workers if pool is not None else 1
    chunk = policy.chunk_size or auto_chunk_size(n_items, workers)
    if not policy.parallel or pool is None or n_items == 0:
        # Sequential fall-back (also used outside any runtime).
        return [chunk_body(rng) for rng in partition(start, stop, chunk)]

    chunks = partition(start, stop, chunk)
    futures: list[Future] = []
    for rng in chunks:
        futures.append(pool.submit(chunk_body, rng, description="chunk"))
    return [f.get() for f in when_all(futures).get()]


def _index_space(first: int, last: int) -> tuple[int, int]:
    if last < first:
        raise RuntimeStateError(f"invalid index space [{first}, {last})")
    return first, last


def for_each(
    policy: ExecutionPolicy, sequence: Sequence[T] | range, fn: Callable[[T], Any]
) -> None:
    """Apply ``fn`` to every element (Listing 1's driver).

    For ``range`` inputs the element *is* the index, matching
    ``for_each(policy, begin(range), end(range), f)`` over a counting
    range in the paper's code.
    """
    items = sequence

    def chunk_body(rng: range) -> None:
        for i in rng:
            fn(items[i])

    _submit_chunks(policy, 0, len(items), chunk_body)


def for_each_block(
    policy: ExecutionPolicy, first: int, last: int, body: Callable[[range], Any]
) -> None:
    """Fused block execution: ``body(chunk_range)`` once per chunk.

    The fast path behind :func:`for_each` for vectorizable bodies: the
    index space is partitioned exactly as :func:`for_each` would
    partition it (same chunk count, same HPX-thread per chunk, so the
    virtual makespan is identical), but instead of one ``fn(i)`` Python
    call per element the chunk's whole index range is handed to ``body``
    in one call -- letting it update a contiguous numpy block with a
    handful of vectorized operations.  The caller promises that
    ``body(range(a, c))`` computes bit-identically to ``body(range(a,
    b))`` followed by ``body(range(b, c))`` -- true for elementwise and
    stencil updates that read only the previous time level.
    """
    first, last = _index_space(first, last)
    _submit_chunks(policy, first, last, body)

