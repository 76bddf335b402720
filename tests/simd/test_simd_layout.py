"""Unit tests for the Virtual Node Scheme layout."""

import numpy as np
import pytest

from repro.errors import LayoutError
from repro.simd import VnsLayout


def test_layout_shape():
    layout = VnsLayout(width=18, lanes=4)  # 16 interior / 4 lanes = chunk 4
    assert layout.chunk == 4


def test_invalid_layouts_rejected():
    with pytest.raises(LayoutError):
        VnsLayout(18, 0)
    with pytest.raises(LayoutError):
        VnsLayout(2, 1)
    with pytest.raises(LayoutError):
        VnsLayout(18, 5)  # 16 interior not divisible by 5


def test_pack_row_positions():
    layout = VnsLayout(10, 2)  # interior 8, chunk 4
    row = np.arange(10.0)
    packed = layout.pack_row(row)
    # lane 0 holds interior elements 1..4, lane 1 holds 5..8.
    assert packed[1:-1, 0].tolist() == [1.0, 2.0, 3.0, 4.0]
    assert packed[1:-1, 1].tolist() == [5.0, 6.0, 7.0, 8.0]
    # halos: lane 0 left = global boundary, lane 1 left = lane 0's last.
    assert packed[0, 0] == 0.0
    assert packed[0, 1] == 4.0
    assert packed[-1, 0] == 5.0  # lane 0 right = lane 1's first
    assert packed[-1, 1] == 9.0  # global right boundary


def test_roundtrip():
    layout = VnsLayout(34, 8)
    row = np.linspace(-1, 1, 34)
    assert np.allclose(layout.unpack_row(layout.pack_row(row)), row)


def test_pack_row_wrong_shape_rejected():
    layout = VnsLayout(10, 2)
    with pytest.raises(LayoutError):
        layout.pack_row(np.zeros(11))
    with pytest.raises(LayoutError):
        layout.unpack_row(np.zeros((3, 2)))


def test_neighbour_property():
    """The load-bearing invariant: with fresh halos, packed[j-1]/[j+1]
    are exactly the x-1/x+1 neighbours of packed[j]."""
    layout = VnsLayout(26, 4)
    row = np.arange(26.0)
    packed = layout.pack_row(row)
    for j in range(1, layout.chunk + 1):
        for lane in range(4):
            x = 1 + lane * layout.chunk + (j - 1)
            assert packed[j, lane] == row[x]
            assert packed[j - 1, lane] == row[x - 1]
            assert packed[j + 1, lane] == row[x + 1]


def test_refresh_halo_after_update():
    layout = VnsLayout(10, 2)
    row = np.arange(10.0)
    packed = layout.pack_row(row)
    packed[1:-1, :] *= 2.0  # simulate a stencil write of the interior
    layout.refresh_halo(packed)
    assert packed[0, 1] == 8.0  # lane 0's last interior (4) doubled
    assert packed[-1, 0] == 10.0  # lane 1's first interior (5) doubled
    # Global boundary halos untouched (Dirichlet).
    assert packed[0, 0] == 0.0
    assert packed[-1, 1] == 9.0


def test_refresh_halo_single_lane_is_noop():
    layout = VnsLayout(10, 1)
    packed = layout.pack_row(np.arange(10.0))
    before = packed.copy()
    layout.refresh_halo(packed)
    assert np.array_equal(packed, before)


def test_grid_roundtrip():
    layout = VnsLayout(18, 4)
    rng = np.random.default_rng(7)
    grid = rng.random((5, 18))
    assert np.allclose(layout.unpack_grid(layout.pack_grid(grid)), grid)


def test_pack_grid_wrong_shape():
    layout = VnsLayout(18, 4)
    with pytest.raises(LayoutError):
        layout.pack_grid(np.zeros((5, 20)))
    with pytest.raises(LayoutError):
        layout.unpack_grid(np.zeros((5, 6, 3)))


def test_dtype_preserved():
    layout = VnsLayout(10, 2)
    packed = layout.pack_row(np.arange(10, dtype=np.float32))
    assert packed.dtype == np.float32
    assert layout.unpack_row(packed).dtype == np.float32
