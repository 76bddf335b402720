"""Execution policies (C++17 / HPX execution policies).

A policy is an immutable value describing *how* an algorithm may run:

* ``seq``       -- sequential, calling thread;
* ``par``       -- parallel HPX-threads.

Policies are refined functionally: ``par.with_chunk_size(n)`` overrides
the auto-partitioner.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ...errors import RuntimeStateError

__all__ = ["ExecutionPolicy", "seq", "par"]


@dataclass(frozen=True)
class ExecutionPolicy:
    """Immutable description of how to run a parallel algorithm."""

    name: str
    parallel: bool
    chunk_size: Optional[int] = None

    def with_chunk_size(self, n: int) -> "ExecutionPolicy":
        """Fix the chunk size used by the partitioner."""
        if n < 1:
            raise RuntimeStateError(f"chunk size must be >= 1, got {n}")
        return replace(self, chunk_size=n)

    def __repr__(self) -> str:  # pragma: no cover
        bits = [self.name]
        if self.chunk_size is not None:
            bits.append(f"chunk={self.chunk_size}")
        return f"ExecutionPolicy({', '.join(bits)})"


#: Sequential execution on the calling HPX-thread.
seq = ExecutionPolicy("seq", parallel=False)
#: Parallel execution on HPX-threads.
par = ExecutionPolicy("par", parallel=True)
