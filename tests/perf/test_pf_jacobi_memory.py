"""Counted guards on the row-block Jacobi kernel and its gather.

Bytes allocated, not wall time: ``tracemalloc`` sees every NumPy data
buffer, so the peak a call allocates is exact on any host.  The sweep
runs in place: a partition's first step allocates the kernel's scratch,
one chunk of the row-chunked sweep plus one held row, and every later
step allocates no level at all (the fresh level per step it replaced
peaked at 1.03 x the block, the 2D-slice kernel before that at 2.21 x),
whether the block is one chunk or four.  What a step still allocates is
the saved wall columns and the two edge rows it ships.  The gather hands
out a read-only view of the owned rows (the copy it replaced was
0.97 x), valid until the partition's next step; the driver copies it at
once, so a field returned by ``run()`` outlives later runs.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from repro.config import Config
from repro.runtime.runtime import Runtime
from repro.stencil import jacobi2d_dist
from repro.stencil.jacobi2d_dist import DistributedJacobi2D, Jacobi2DPartition

#: A partition block with its two halo rows (528 KB): one chunk.
SHAPE = (66, 1024)
UP, DOWN = np.full(SHAPE[1], 2.0), np.full(SHAPE[1], -1.0)
#: 98 interior rows at nx = 2048 (1.6 MB): three chunks of 32 rows and
#: one of 2.  Its ends are open, so its halo rows stay as they are.
MULTI_CHUNK_SHAPE = (100, 2048)


@contextmanager
def _connected(shape):
    """A connected, unstepped partition of ``shape``."""
    with Runtime(n_localities=1, workers_per_locality=1) as rt:
        block = Jacobi2DPartition(np.random.default_rng(1).random(shape))
        block.connect(rt, None, None)  # open ends: nothing is shipped
        yield block


@pytest.fixture
def part():
    with _connected(SHAPE) as block:
        block.advance(0, UP, DOWN)
        yield block


@pytest.fixture
def multi_chunk_part():
    with _connected(MULTI_CHUNK_SHAPE) as block:
        block.advance(0, None, None)
        yield block


def _peak_bytes(call) -> int:
    """Peak bytes allocated while ``call`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "shape, up, down",
    [(SHAPE, UP, DOWN), (MULTI_CHUNK_SHAPE, None, None)],
    ids=["one-chunk", "four-chunks"],
)
def test_the_first_step_allocates_one_chunk_and_one_row(shape, up, down):
    with _connected(shape) as block:
        peak = _peak_bytes(lambda: block.advance(0, up, down))
        scratch = block._acc.nbytes
        assert scratch <= jacobi2d_dist._CHUNK_BYTES + 8 * shape[1]
        assert peak <= scratch + 0.05 * block.u.nbytes, peak / block.u.nbytes


def _assert_a_step_allocates_no_level(part, up, down):
    peak = _peak_bytes(lambda: part.advance(1, up, down))
    assert peak <= 0.05 * part.u.nbytes, peak / part.u.nbytes


def test_a_step_allocates_no_level(part):
    _assert_a_step_allocates_no_level(part, UP, DOWN)


def test_a_multi_chunk_step_allocates_no_level(multi_chunk_part):
    _assert_a_step_allocates_no_level(multi_chunk_part, None, None)


def test_the_gather_copies_nothing(part):
    peak = _peak_bytes(part.interior)
    assert peak <= 0.05 * part.u.nbytes, peak / part.u.nbytes


def test_a_gathered_block_is_read_only(part):
    assert not part.interior().flags.writeable


@pytest.mark.parametrize(
    "config",
    [None, Config.from_mapping({"runtime.backend": "multiprocess"})],
    ids=["virtual", "2-processes"],
)
def test_a_returned_field_outlives_later_runs(config):
    """The blocks are swept in place; what ``run()`` returns is not theirs."""
    field = np.random.default_rng(4).random((18, 12))
    with Runtime(n_localities=2, workers_per_locality=1, config=config) as rt:
        solver = DistributedJacobi2D(rt, 18, 12, partitions_per_locality=2)
        solver.initialize(field)
        out = solver.run(3)
        before = out.tobytes()
        solver.run(2)
        solver.run(2)
    assert out.tobytes() == before


def test_sent_edges_are_copies_not_views_of_a_level(part):
    """An edge-log view would pin its whole level for EDGE_LOG_STEPS steps,
    and the next in-place sweep would overwrite it."""
    sent = {1: (part.u[1].tobytes(), part.u[-2].tobytes())}
    for t in range(1, 4):
        part.advance(t, UP, DOWN)
        sent[t + 1] = (part.u[1].tobytes(), part.u[-2].tobytes())
    edges = [edge for pair in part._edge_log.values() for edge in pair]
    assert len(edges) == 2 * 4 and all(edge.base is None for edge in edges)
    for step, rows in sent.items():
        assert tuple(edge.tobytes() for edge in part._edge_log[step]) == rows
