"""Ablation: NUMA placement policy (first-touch vs interleaved lockstep).

The paper's 1D solver uses HPX block allocators + block executors so
every HPX thread "spawns at a location of data".  This ablation compares
the effective bandwidth of the two placement regimes on every machine,
and shows the 2D lockstep dips disappear under perfect first-touch.
"""

import pytest

from repro.hardware import machine, machine_names
from repro.reporting import Series, format_figure


def placement_curves(name: str) -> dict[str, Series]:
    m = machine(name)
    cores = range(1, m.spec.cores_per_node + 1)
    first_touch = Series("first-touch")
    lockstep = Series("interleaved lockstep")
    for c in cores:
        first_touch.add(c, m.memory.first_touch_bandwidth(c))
        lockstep.add(c, m.memory.lockstep_bandwidth(c))
    return {"first-touch": first_touch, "lockstep": lockstep}


@pytest.mark.parametrize("name", machine_names())
def test_first_touch_dominates_lockstep(name):
    curves = placement_curves(name)
    ft = curves["first-touch"].ys()
    ls = curves["lockstep"].ys()
    assert all(a >= b - 1e-9 for a, b in zip(ft, ls))
    print(
        format_figure(
            f"Ablation: placement policy on {machine(name).spec.name} (GB/s)",
            list(curves.values()),
            xlabel="cores",
            y_format="{:.1f}",
        )
    )


def test_kunpeng_dips_vanish_with_first_touch():
    """The Fig 5 sawtooth is a placement artefact: first-touch is smooth."""
    m = machine("kunpeng916")
    ft = [m.memory.first_touch_bandwidth(c) for c in range(8, 65, 8)]
    assert ft == sorted(ft)  # monotone: no dips
    ls = [m.memory.lockstep_bandwidth(c) for c in range(8, 65, 8)]
    assert ls != sorted(ls)  # the lockstep curve does dip


def test_placement_gap_largest_at_partial_domains():
    m = machine("kunpeng916")
    gap_at = {
        c: m.memory.first_touch_bandwidth(c) - m.memory.lockstep_bandwidth(c)
        for c in (32, 40, 48)
    }
    assert gap_at[40] > gap_at[32]
    assert gap_at[40] > gap_at[48]
