"""Property-based tests for the partitioned vector."""

import operator

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.containers import PartitionedVector
from repro.runtime import Runtime
from repro.runtime.actions import action


@action(name="prop.sum_segment")
def _sum_segment(data):
    return float(np.sum(data))


@given(
    size=st.integers(1, 40),
    n_localities=st.integers(1, 4),
    segments_per_locality=st.integers(1, 3),
)
@settings(max_examples=30, deadline=None)
def test_segments_partition_index_space(size, n_localities, segments_per_locality):
    with Runtime(n_localities=n_localities, workers_per_locality=1) as rt:
        vec = PartitionedVector(
            rt, size, segments_per_locality=segments_per_locality
        )
        seen = [vec.segment_of(i) for i in range(size)]
        # Every index maps to exactly one (segment, offset) pair.
        assert len(set(seen)) == size
        # Offsets within a segment are contiguous from zero.
        by_segment: dict[int, list[int]] = {}
        for seg, off in seen:
            by_segment.setdefault(seg, []).append(off)
        for offsets in by_segment.values():
            assert offsets == list(range(len(offsets)))


@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=24,
    ),
    n_localities=st.integers(1, 3),
)
@settings(max_examples=25, deadline=None)
def test_gather_roundtrip(values, n_localities):
    data = np.array(values)
    with Runtime(n_localities=n_localities, workers_per_locality=1) as rt:
        vec = PartitionedVector(rt, len(values), initial=data)
        assert np.array_equal(rt.run(vec.to_array), data)


@given(
    writes=st.lists(
        st.tuples(st.integers(0, 11), st.floats(-100, 100, allow_nan=False)),
        max_size=20,
    )
)
@settings(max_examples=25, deadline=None)
def test_set_get_matches_plain_array(writes):
    reference = np.zeros(12)
    with Runtime(n_localities=3, workers_per_locality=1) as rt:
        vec = PartitionedVector(rt, 12)

        def main():
            for index, value in writes:
                vec.set(index, value)
                reference[index] = value
            return [vec.get(i) for i in range(12)]

        result = rt.run(main)
    assert np.allclose(result, reference)


@given(
    values=st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=20, deadline=None)
def test_distributed_reduce_equals_local_sum(values):
    data = np.array(values)
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        vec = PartitionedVector(rt, len(values), initial=data)
        total = rt.run(lambda: vec.reduce("prop.sum_segment", operator.add, 0.0))
    assert total == float(np.sum(data)) or abs(total - np.sum(data)) < 1e-6
