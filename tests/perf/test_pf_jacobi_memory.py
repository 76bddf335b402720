"""Counted guards on the row-block Jacobi kernel and its gather.

Bytes allocated, not wall time: ``tracemalloc`` sees every NumPy data
buffer, so the peak a call allocates is exact on any host.  One step
allocates its new level and nothing else (1.03 x the block here; the
2D-slice kernel it replaced peaked at 2.21 x); the gather hands out a
read-only view of the owned rows (the copy it replaced was 0.97 x).  Both rest on
one rule of :mod:`repro.stencil.jacobi2d_dist`: a level's interior is
never written once stepped, which a reused step buffer would break.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.runtime.runtime import Runtime
from repro.stencil.jacobi2d_dist import Jacobi2DPartition

#: A partition block with its two halo rows (528 KB).
SHAPE = (66, 1024)
UP, DOWN = np.full(SHAPE[1], 2.0), np.full(SHAPE[1], -1.0)


@pytest.fixture
def part():
    with Runtime(n_localities=1, workers_per_locality=1) as rt:
        block = Jacobi2DPartition(np.random.default_rng(1).random(SHAPE))
        block.connect(rt, None, None)  # open ends: nothing is shipped
        block.advance(0, UP, DOWN)
        yield block


def _peak_bytes(call) -> int:
    """Peak bytes allocated while ``call`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_step_allocates_its_new_level_only(part):
    peak = _peak_bytes(lambda: part.advance(1, UP, DOWN))
    assert peak <= 1.1 * part.u.nbytes, peak / part.u.nbytes


def test_the_gather_copies_nothing(part):
    peak = _peak_bytes(part.interior)
    assert peak <= 0.05 * part.u.nbytes, peak / part.u.nbytes


def test_a_gathered_block_is_read_only_and_outlives_later_steps(part):
    block = part.interior()
    before = block.tobytes()
    assert not block.flags.writeable
    for t in range(1, 4):
        part.advance(t, UP, DOWN)
    assert block.tobytes() == before


def test_sent_edges_are_copies_not_views_of_a_level(part):
    """An edge-log view would pin its whole level for EDGE_LOG_STEPS steps."""
    for t in range(1, 4):
        part.advance(t, UP, DOWN)
    edges = [edge for pair in part._edge_log.values() for edge in pair]
    assert len(edges) == 2 * 4 and all(edge.base is None for edge in edges)
