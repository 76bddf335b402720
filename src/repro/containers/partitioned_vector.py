"""``hpx::partitioned_vector`` analogue: a distributed NumPy vector.

The vector's elements are split into near-equal contiguous segments, one
AGAS component per segment, distributed block-wise over the job's
localities.  All access goes through the runtime -- element reads/writes
and bulk map/reduce operations become component actions, so remote
segments cost parcels (and virtual network time) exactly like any other
distributed data.

Supports the operations HPX's container algorithms need:

* element access: ``get(i)`` / ``set(i, v)`` (sync),
  ``get_async`` / ``set_async`` (futures),
* bulk: ``fill``, ``map_inplace`` (a registered unary action applied to
  every segment in parallel), ``reduce`` (segment-local fold + ordered
  combine), ``to_array`` (gather),
* introspection: ``segment_of(i)``, ``segments``, ``len``.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..errors import ValidationError
from ..runtime.agas.component import Component
from ..runtime.algorithms.partitioner import static_chunks
from ..runtime.futures import Future, when_all
from ..runtime.runtime import Runtime

__all__ = ["PartitionedVector", "VectorSegment"]


class VectorSegment(Component):
    """One locality's contiguous slice of the vector."""

    def __init__(self, data: np.ndarray) -> None:
        super().__init__()
        self.data = np.array(data, dtype=np.float64, copy=True)

    def get_element(self, local_index: int) -> float:
        self.mark_read("data")
        return float(self.data[local_index])

    def set_element(self, local_index: int, value: float) -> None:
        self.mark_write("data")
        self.data[local_index] = value

    def fill(self, value: float) -> None:
        self.mark_write("data")
        self.data[...] = value

    def apply(self, fn: Callable[[np.ndarray], np.ndarray] | str) -> None:
        """Apply a whole-segment transform (must be shippable)."""
        if isinstance(fn, str):
            from ..runtime.actions import get_action

            fn = get_action(fn)
        self.mark_write("data")
        result = np.asarray(fn(self.data), dtype=np.float64)
        if result.shape != self.data.shape:
            raise ValidationError(
                f"segment transform changed shape {self.data.shape} -> {result.shape}"
            )
        self.data = result

    def local_reduce(self, fn: Callable[[np.ndarray], float] | str) -> float:
        if isinstance(fn, str):
            from ..runtime.actions import get_action

            fn = get_action(fn)
        self.mark_read("data")
        return float(fn(self.data))

    def read_all(self) -> np.ndarray:
        self.mark_read("data")
        return np.array(self.data, copy=True)


class PartitionedVector:
    """A fixed-size distributed vector of float64."""

    def __init__(
        self,
        runtime: Runtime,
        size: int,
        initial: float | np.ndarray = 0.0,
        segments_per_locality: int = 1,
    ) -> None:
        if size < 1:
            raise ValidationError("vector size must be >= 1")
        if segments_per_locality < 1:
            raise ValidationError("segments_per_locality must be >= 1")
        self.runtime = runtime
        self.size = size
        n_segments = min(size, runtime.n_localities * segments_per_locality)
        self._ranges = [r for r in static_chunks(size, n_segments) if r]
        if isinstance(initial, np.ndarray):
            initial = np.asarray(initial, dtype=np.float64)
            if initial.shape != (size,):
                raise ValidationError(
                    f"initial array must have shape ({size},), got {initial.shape}"
                )
        self._gids = []
        self._segments: list[VectorSegment] = []
        for seg_index, rng in enumerate(self._ranges):
            locality = seg_index % runtime.n_localities
            if isinstance(initial, np.ndarray):
                data = initial[rng.start : rng.stop]
            else:
                data = np.full(len(rng), float(initial))
            segment = VectorSegment(data)
            self._gids.append(runtime.new_component(segment, locality_id=locality))
            self._segments.append(segment)

    # Introspection ---------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

    @property
    def n_segments(self) -> int:
        return len(self._ranges)

    def segment_of(self, index: int) -> tuple[int, int]:
        """``(segment id, local offset)`` for a global index."""
        if not 0 <= index < self.size:
            raise ValidationError(f"index {index} out of range [0, {self.size})")
        for seg_index, rng in enumerate(self._ranges):
            if rng.start <= index < rng.stop:
                return seg_index, index - rng.start
        raise ValidationError(f"index {index} not covered by any segment")  # pragma: no cover

    def home_of(self, index: int) -> int:
        """Locality currently hosting the element (follows migration)."""
        seg_index, _ = self.segment_of(index)
        return self.runtime.agas.home_of(self._gids[seg_index])

    # Element access -----------------------------------------------------------------
    def get_async(self, index: int) -> Future:
        seg_index, offset = self.segment_of(index)
        return self.runtime.invoke_async(self._gids[seg_index], "get_element", offset)

    def get(self, index: int) -> float:
        return self.get_async(index).get()

    def set_async(self, index: int, value: float) -> Future:
        seg_index, offset = self.segment_of(index)
        return self.runtime.invoke_async(
            self._gids[seg_index], "set_element", offset, float(value)
        )

    def set(self, index: int, value: float) -> None:
        self.set_async(index, value).get()

    # Bulk operations -----------------------------------------------------------------
    def fill(self, value: float) -> None:
        futures = [
            self.runtime.invoke_async(gid, "fill", float(value)) for gid in self._gids
        ]
        for future in when_all(futures).get():
            future.get()  # surface per-segment errors

    def map_inplace(self, fn: Callable[[np.ndarray], np.ndarray] | str) -> None:
        """Apply ``fn`` to every segment in parallel (must be shippable:
        a module-level function or a registered action name)."""
        futures = [self.runtime.invoke_async(gid, "apply", fn) for gid in self._gids]
        for future in when_all(futures).get():
            future.get()  # surface per-segment errors

    def reduce(
        self,
        segment_fn: Callable[[np.ndarray], float] | str,
        combine: Callable[[float, float], float],
        init: float,
    ) -> float:
        """Segment-local fold shipped to the data, combined in segment
        order (associative ``combine`` required for determinism)."""
        futures = [
            self.runtime.invoke_async(gid, "local_reduce", segment_fn)
            for gid in self._gids
        ]
        result = init
        for future in when_all(futures).get():
            result = combine(result, future.get())
        return result

    def to_array(self) -> np.ndarray:
        """Gather all segments into one local array."""
        futures = [self.runtime.invoke_async(gid, "read_all") for gid in self._gids]
        parts = [f.get() for f in when_all(futures).get()]
        return np.concatenate(parts) if parts else np.empty(0)

    def migrate_segment(self, seg_index: int, to_locality: int) -> None:
        """Move one segment's home (load balancing); indices stay valid."""
        if not 0 <= seg_index < self.n_segments:
            raise ValidationError(f"segment {seg_index} out of range")
        self.runtime.agas.migrate(self._gids[seg_index], to_locality)

    # Checkpoint / crash recovery --------------------------------------------------
    def checkpoint_state(self) -> list[dict[str, Any]]:
        """Snapshot every segment, so ``save_checkpoint(vec)`` captures
        the whole vector as one object."""
        return [segment.checkpoint_state() for segment in self._segments]

    def restore_state(self, state: list[dict[str, Any]]) -> None:
        """Restore all segments from a :meth:`checkpoint_state` snapshot."""
        if len(state) != len(self._segments):
            raise ValidationError(
                f"checkpoint has {len(state)} segments, vector has "
                f"{len(self._segments)}"
            )
        for segment, seg_state in zip(self._segments, state):
            segment.restore_state(seg_state)
