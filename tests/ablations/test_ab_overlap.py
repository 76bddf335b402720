"""Ablation: communication/computation overlap on and off.

The paper attributes Kunpeng 916's scaling failure to its inability to
hide network latencies.  This ablation runs the 1D cost model for every
machine with overlap forcibly disabled and shows that *any* platform
degrades to Kunpeng-like behaviour -- i.e. the latency-hiding property
of the futurized ParalleX formulation, not raw network speed alone, is
what Fig 3 demonstrates.
"""

import dataclasses

import pytest

from repro.hardware import machine
from repro.hardware.registry import MachineModel
from repro.perf.cost import stencil1d_time
from repro.reporting import Series, format_figure


def _with_overlap(m: MachineModel, overlap: bool) -> MachineModel:
    cal = dataclasses.replace(m.calibration, network_overlap=overlap)
    return dataclasses.replace(m, calibration=cal)


def _with_network_quality(m: MachineModel, latency_s: float) -> MachineModel:
    net = dataclasses.replace(m.interconnect, latency_s=latency_s)
    return dataclasses.replace(m, interconnect=net)


def overlap_ablation(name: str, nodes=(1, 2, 4, 8)) -> dict[str, list[float]]:
    base = machine(name)
    # Give the machine a mediocre (1 ms) network so overlap has work to do.
    slow = _with_network_quality(base, latency_s=1e-3)
    return {
        "overlap": [stencil1d_time(_with_overlap(slow, True), n) for n in nodes],
        "no-overlap": [stencil1d_time(_with_overlap(slow, False), n) for n in nodes],
    }


def test_overlap_hides_millisecond_latency():
    """With overlap, a 1 ms-latency network costs (almost) nothing while
    compute per step exceeds the comm time."""
    data = overlap_ablation("xeon-e5-2660v3")
    nodes = (1, 2, 4, 8)
    with_ov = Series("overlap on", list(zip(nodes, data["overlap"])))
    without = Series("overlap off", list(zip(nodes, data["no-overlap"])))
    text = format_figure(
        "Ablation: overlap on/off, Xeon with a 1 ms-latency network "
        "(strong scaling, seconds)",
        [with_ov, without],
        xlabel="nodes",
        y_format="{:.2f}",
    )
    print(text)
    for t_on, t_off in zip(data["overlap"], data["no-overlap"]):
        assert t_on <= t_off + 1e-12
    # At 8 nodes the gap is the unhidden comm: 100 steps x ~1 ms.
    assert data["no-overlap"][-1] - data["overlap"][-1] == pytest.approx(0.1, rel=0.05)


def test_overlap_is_why_xeon_scales_and_kunpeng_does_not():
    """Force Kunpeng's overlap flag on: its scaling factor recovers."""
    kunpeng = machine("kunpeng916")
    factor_off = stencil1d_time(kunpeng, 1) / stencil1d_time(kunpeng, 8)
    forced_on = _with_overlap(kunpeng, True)
    factor_on = stencil1d_time(forced_on, 1) / stencil1d_time(forced_on, 8)
    assert factor_off < 4.5
    assert factor_on > factor_off + 1.0


def test_overlap_matters_only_with_communication():
    """Single node: overlap flag must change nothing."""
    for name in ("xeon-e5-2660v3", "kunpeng916"):
        m = machine(name)
        assert stencil1d_time(_with_overlap(m, True), 1) == pytest.approx(
            stencil1d_time(_with_overlap(m, False), 1)
        )
