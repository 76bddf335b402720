"""Tests for the cache-blocked 2D sweep's traffic model.

Derived with the cache simulator: blocking restores the 3-transfers
figure when full rows overflow the cache.
"""

import pytest

from repro.errors import TopologyError
from repro.hardware.cachesim import CacheSim, jacobi_blocked_traffic, jacobi_row_traffic


class TestBlockedTraffic:
    def test_blocking_recovers_three_transfers_for_huge_rows(self):
        """Rows of 4096 doubles overflow a 32 KiB cache: the row sweep
        pays 5 transfers/LUP, the blocked sweep only ~3."""
        row_sweep = CacheSim(32 * 1024, 64, 8)
        unblocked = jacobi_row_traffic(row_sweep, ny=12, nx=4096, sweeps=2)
        tiled = CacheSim(32 * 1024, 64, 8)
        blocked = jacobi_blocked_traffic(tiled, ny=12, nx=4096, tile_nx=256, sweeps=2)
        assert unblocked == pytest.approx(40.0, rel=0.10)
        assert blocked == pytest.approx(24.0, rel=0.15)

    def test_blocking_is_neutral_when_rows_already_fit(self):
        """No benefit (and no harm) when the row sweep already reuses."""
        plain = CacheSim(32 * 1024, 64, 8)
        row = jacobi_row_traffic(plain, ny=16, nx=512, sweeps=2)
        tiled = CacheSim(32 * 1024, 64, 8)
        blocked = jacobi_blocked_traffic(tiled, ny=16, nx=512, tile_nx=128, sweeps=2)
        assert blocked == pytest.approx(row, rel=0.15)

    def test_too_narrow_tiles_waste_halo_lines(self):
        """Tiny tiles refetch the tile-edge lines every pass: traffic
        rises above the well-tiled figure."""
        good = CacheSim(32 * 1024, 64, 8)
        wide = jacobi_blocked_traffic(good, ny=12, nx=2048, tile_nx=256, sweeps=2)
        bad = CacheSim(32 * 1024, 64, 8)
        narrow = jacobi_blocked_traffic(bad, ny=12, nx=2048, tile_nx=8, sweeps=2)
        assert narrow > wide * 1.2

    def test_validation(self):
        cache = CacheSim(32 * 1024, 64, 8)
        with pytest.raises(TopologyError):
            jacobi_blocked_traffic(cache, 2, 64, 16)
        with pytest.raises(TopologyError):
            jacobi_blocked_traffic(cache, 8, 64, 1)
        with pytest.raises(TopologyError):
            jacobi_blocked_traffic(cache, 8, 64, 16, sweeps=0)
