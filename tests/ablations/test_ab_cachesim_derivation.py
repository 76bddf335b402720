"""Deriving the roofline's arithmetic-intensity inputs from first
principles.

The analytic cost model (and the paper) assume 3 memory transfers per
lattice-site update when three rows fit in cache, 5 when they do not,
and 2 in the streaming-store / implicit-blocking regime.  These tests
*derive* those numbers by running the exact Jacobi access trace through
the LRU set-associative cache simulator, and print the derivation.
"""

import pytest

from repro.hardware.cachesim import CacheSim, jacobi_row_traffic
from repro.reporting import format_table


SCENARIOS = [
    # (label, cache kB, line B, write-allocate, ny, nx, elem, expected B/LUP)
    ("doubles, 3 rows fit (paper baseline)", 32, 64, True, 32, 512, 8, 24.0),
    ("floats, 3 rows fit (paper baseline)", 32, 64, True, 32, 1024, 4, 12.0),
    ("doubles, rows too large (worst case)", 32, 64, True, 12, 4096, 8, 40.0),
    ("doubles, streaming stores (blocked regime)", 32, 64, False, 32, 512, 8, 16.0),
    ("doubles, 256 B lines (A64FX geometry)", 32, 256, True, 32, 512, 8, 24.0),
]


def derive_all() -> list[tuple[str, float, float]]:
    rows = []
    for label, kb, line, wa, ny, nx, elem, expected in SCENARIOS:
        cache = CacheSim(kb * 1024, line, 8, write_allocate=wa)
        measured = jacobi_row_traffic(cache, ny, nx, elem_bytes=elem, sweeps=2)
        rows.append((label, expected, measured))
    return rows


def test_derivation_exhibit():
    rows = derive_all()
    table = format_table(
        ["scenario", "assumed B/LUP", "simulated B/LUP", "error"],
        [
            [label, f"{expected:.0f}", f"{measured:.2f}", f"{measured / expected - 1:+.1%}"]
            for label, expected, measured in rows
        ],
    )
    print(
        "Derivation: memory traffic per lattice-site update "
        "(LRU set-associative cache, exact 5-point trace)\n" + table
    )
    for label, expected, measured in rows:
        assert measured == pytest.approx(expected, rel=0.10), label


def test_transition_point_matches_capacity():
    """Sweep the row size: traffic jumps from 3 to 5 transfers right
    where three rows stop fitting in the cache."""
    traffic = {
        nx: jacobi_row_traffic(CacheSim(32 * 1024, 64, 8), 12, nx, sweeps=2)
        for nx in (512, 1024, 2048, 4096)
    }
    # 32 KiB / (3 rows x 8 B) ~ 1365 elements: 1024 fits, 2048 does not.
    assert traffic[512] == pytest.approx(24.0, rel=0.1)
    assert traffic[1024] == pytest.approx(24.0, rel=0.15)
    assert traffic[2048] == pytest.approx(40.0, rel=0.15)
    assert traffic[4096] == pytest.approx(40.0, rel=0.1)
