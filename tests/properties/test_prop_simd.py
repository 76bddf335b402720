"""Property-based tests: the Virtual Node Scheme layout round-trips and
keeps every x-neighbour next to its lane."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.simd import VnsLayout

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)


@given(
    lanes=st.sampled_from([1, 2, 4, 8, 16]),
    chunk=st.integers(min_value=1, max_value=32),
    data=st.data(),
)
@settings(max_examples=60)
def test_vns_roundtrip_any_geometry(lanes, chunk, data):
    width = 2 + lanes * chunk
    row = data.draw(arrays(np.float64, width, elements=finite))
    layout = VnsLayout(width, lanes)
    assert np.array_equal(layout.unpack_row(layout.pack_row(row)), row)


@given(
    lanes=st.sampled_from([2, 4, 8]),
    chunk=st.integers(min_value=1, max_value=16),
    data=st.data(),
)
@settings(max_examples=40)
def test_vns_neighbour_invariant(lanes, chunk, data):
    """packed[j-1]/[j+1] are the true x-neighbours for every interior x."""
    width = 2 + lanes * chunk
    row = data.draw(arrays(np.float64, width, elements=finite))
    layout = VnsLayout(width, lanes)
    packed = layout.pack_row(row)
    for lane in range(lanes):
        for j in range(1, chunk + 1):
            x = 1 + lane * chunk + (j - 1)
            assert packed[j, lane] == row[x]
            assert packed[j - 1, lane] == row[x - 1]
            assert packed[j + 1, lane] == row[x + 1]


@given(
    lanes=st.sampled_from([2, 4]),
    chunk=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
@settings(max_examples=40)
def test_vns_refresh_restores_neighbour_invariant_after_write(lanes, chunk, data):
    width = 2 + lanes * chunk
    row = data.draw(arrays(np.float64, width, elements=finite))
    layout = VnsLayout(width, lanes)
    packed = layout.pack_row(row)
    packed[1:-1, :] = packed[1:-1, :] * 0.5 + 1.0  # arbitrary interior update
    layout.refresh_halo(packed)
    unpacked = layout.unpack_row(packed)
    repacked = layout.pack_row(unpacked)
    assert np.array_equal(packed, repacked)
