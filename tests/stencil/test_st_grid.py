"""Unit tests for the Grid container."""

import numpy as np
import pytest

from repro.errors import LayoutError, ValidationError
from repro.stencil import Grid, GridPair


def test_scalar_grid_shape():
    grid = Grid(4, 6)
    assert grid.data.shape == (4, 6)
    assert grid.row_size() == 6


def test_vns_grid_shape():
    grid = Grid(4, 10, layout="vns", lanes=2)  # interior 8, chunk 4
    assert grid.data.shape == (4, 6, 2)


def test_too_small_rejected():
    with pytest.raises(LayoutError):
        Grid(2, 10)
    with pytest.raises(LayoutError):
        Grid(10, 2)


def test_bad_dtype_rejected():
    with pytest.raises(ValidationError):
        Grid(4, 6, dtype=np.int32)


def test_bad_layout_rejected():
    with pytest.raises(LayoutError):
        Grid(4, 6, layout="columnar")


def test_fill_and_read_back_scalar():
    grid = Grid(3, 4)
    field = np.arange(12.0).reshape(3, 4)
    grid.fill_from(field)
    assert np.array_equal(grid.to_scalar_array(), field)


def test_fill_and_read_back_vns():
    grid = Grid(3, 10, layout="vns", lanes=4)
    field = np.arange(30.0).reshape(3, 10)
    grid.fill_from(field)
    assert np.allclose(grid.to_scalar_array(), field)


def test_fill_wrong_shape_rejected():
    with pytest.raises(LayoutError):
        Grid(3, 4).fill_from(np.zeros((4, 4)))


def test_vns_descriptor_only_on_vns_grids():
    with pytest.raises(LayoutError):
        _ = Grid(3, 4).vns
    assert Grid(3, 10, layout="vns", lanes=2).vns.lanes == 2


def test_nbytes():
    assert Grid(4, 8, dtype=np.float32).nbytes == 4 * 8 * 4


def test_grid_pair_indexing_ping_pong():
    pair = GridPair(3, 4)
    assert pair[0] is pair.grids[0]
    assert pair[1] is pair.grids[1]
    assert pair[2] is pair.grids[0]  # t % 2 semantics
    assert pair.current(3) is pair.grids[1]
    assert pair.next(3) is pair.grids[0]


def test_grid_pair_fill_initialises_both_buffers():
    pair = GridPair(3, 4)
    field = np.ones((3, 4))
    pair.fill_from(field)
    assert np.array_equal(pair[0].to_scalar_array(), field)
    assert np.array_equal(pair[1].to_scalar_array(), field)
