"""Parallel algorithms with execution policies (HPX ``hpx::parallel``).

Listing 1 and Listing 2 both drive their stencils through
``hpx::parallel::for_each(policy, begin, end, lambda)``; this package
provides that call surface:

* policies: :data:`seq`, :data:`par`, refined with
  ``.with_chunk_size(n)``;
* algorithms: :func:`for_each` -- plus the fused block variant
  :func:`for_each_block` (one HPX-thread per chunk running a vectorized
  body over the whole chunk).
"""

from .execution_policy import ExecutionPolicy, seq, par
from .partitioner import auto_chunk_size, partition, static_chunks
from .algorithms import for_each, for_each_block

__all__ = [
    "ExecutionPolicy",
    "seq",
    "par",
    "auto_chunk_size",
    "partition",
    "static_chunks",
    "for_each",
    "for_each_block",
]
