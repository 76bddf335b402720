"""Ablation: explicit cache blocking vs the implicit large-cache-line
effect.

The paper observes that A64FX and ThunderX2 get cache-blocking benefits
"without explicit implementation" (~49 % over the 3-transfers roofline)
and that an explicit cache-blocked kernel would achieve the same
2-transfers traffic on *any* machine.  This ablation quantifies what
explicit blocking would buy each machine.
"""

import numpy as np

from repro.hardware import machine, machine_names
from repro.perf import expected_peak_2d
from repro.perf.cost import stencil2d_glups, transfers_per_update
from repro.reporting import format_table


def blocking_benefit_table() -> list[list[str]]:
    rows = []
    for name in machine_names():
        m = machine(name)
        n = m.spec.cores_per_node
        implicit = transfers_per_update(m, np.float32, n)
        unblocked = expected_peak_2d(m, np.float32, n, transfers=3)
        blocked = expected_peak_2d(m, np.float32, n, transfers=2)
        achieved = stencil2d_glups(m, np.float32, "simd", n)
        rows.append(
            [
                m.spec.name,
                f"{implicit:.0f}",
                f"{unblocked:.1f}",
                f"{blocked:.1f}",
                f"{achieved:.1f}",
                f"{blocked / unblocked - 1:+.0%}",
            ]
        )
    return rows


def test_blocking_benefit_exhibit():
    rows = blocking_benefit_table()
    text = format_table(
        [
            "Machine",
            "implicit transfers/LUP",
            "3-transfer peak (GLUP/s)",
            "2-transfer peak (GLUP/s)",
            "model achieved",
            "blocking headroom",
        ],
        rows,
    )
    print("Ablation: explicit cache blocking\n" + text)
    assert len(rows) == 4


def test_explicit_blocking_derivation():
    """Mechanistic check of 'a cache blocked version ... reduces the
    number of memory transfers': the blocked sweep order recovers
    ~3 transfers/LUP on rows that overflow the cache."""
    from repro.hardware.cachesim import (
        CacheSim,
        jacobi_blocked_traffic,
        jacobi_row_traffic,
    )

    row = jacobi_row_traffic(CacheSim(32 * 1024, 64, 8), ny=12, nx=4096, sweeps=2)
    tiled = jacobi_blocked_traffic(
        CacheSim(32 * 1024, 64, 8), ny=12, nx=4096, tile_nx=256, sweeps=2
    )
    print(
        "Explicit blocking, derived (32 KiB cache, 4096-double rows):\n"
        f"  row-order sweep : {row:.1f} B/LUP  (~5 transfers)\n"
        f"  blocked sweep   : {tiled:.1f} B/LUP  (~3 transfers)\n"
        f"  traffic saved   : {1 - tiled / row:.0%}"
    )
    assert tiled < 0.7 * row


def test_only_large_line_machines_get_it_for_free():
    """Xeon/Kunpeng would need the explicit blocked kernel; A64FX/TX2
    already run at 2 transfers (floats)."""
    free = {
        name: transfers_per_update(machine(name), np.float32, 8) == 2.0
        for name in machine_names()
    }
    assert free == {
        "xeon-e5-2660v3": False,
        "kunpeng916": False,
        "thunderx2": True,
        "a64fx": True,
    }
