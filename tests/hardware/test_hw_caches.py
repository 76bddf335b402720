"""Unit tests for the cache hierarchy model."""

import pytest

from repro.errors import TopologyError
from repro.hardware import CacheHierarchy, CacheLevel, machine


def small_hierarchy():
    return CacheHierarchy(
        (
            CacheLevel("L1", 32 * 1024, 64),
            CacheLevel("L2", 1024 * 1024, 64, shared_by_cores=4),
        )
    )


def test_cache_level_validation():
    with pytest.raises(TopologyError):
        CacheLevel("bad", 0, 64)
    with pytest.raises(TopologyError):
        CacheLevel("bad", 100, 64)  # not a multiple of line
    with pytest.raises(TopologyError):
        CacheLevel("bad", 64 * 10, 64, shared_by_cores=0)


def test_cache_level_lines_and_sharing():
    level = CacheLevel("L2", 1024 * 1024, 64, shared_by_cores=4)
    assert level.lines == 16384
    assert level.size_per_core() == 256 * 1024


def test_empty_hierarchy_rejected():
    with pytest.raises(TopologyError):
        CacheHierarchy(())


def test_hierarchy_accessors():
    h = small_hierarchy()
    assert h.l1.name == "L1"
    assert h.line_bytes == 64


def test_effective_capacity_per_core_takes_best_level():
    h = small_hierarchy()
    # L2/4 sharers = 256 KiB > L1 32 KiB.
    assert h.effective_capacity_per_core() == 256 * 1024


def test_rows_fit():
    h = small_hierarchy()
    assert h.rows_fit(row_bytes=64 * 1024, n_rows=3)
    assert not h.rows_fit(row_bytes=100 * 1024, n_rows=3)
    with pytest.raises(TopologyError):
        h.rows_fit(0)


def test_stencil_transfers_baseline_three():
    h = small_hierarchy()
    # Rows fit -> 3 transfers x 8 bytes = 24 B/LUP for doubles.
    assert h.stencil_transfers_per_update(8 * 1024, 8) == 24.0


def test_stencil_transfers_blocking_two():
    h = small_hierarchy()
    assert h.stencil_transfers_per_update(8 * 1024, 8, prefetch_blocking=True) == 16.0


def test_stencil_transfers_rows_do_not_fit():
    h = small_hierarchy()
    # Rows too large for cache: every neighbour misses -> 5 transfers.
    assert h.stencil_transfers_per_update(10**6, 4) == 20.0


def test_paper_ai_derivation():
    """Sec. V-B: floats 12 B/LUP, doubles 24 B/LUP on the paper's grid."""
    xeon = machine("xeon-e5-2660v3")
    row_bytes_float = 8192 * 4  # the paper sizes rows to fit in cache
    assert xeon.caches.stencil_transfers_per_update(row_bytes_float, 4) == 12.0
    assert xeon.caches.stencil_transfers_per_update(8192 * 8, 8) == 24.0


def test_a64fx_has_256_byte_lines():
    assert machine("a64fx").caches.line_bytes == 256
