"""Unit tests for the NUMA bandwidth model."""

import pytest

from repro.errors import TopologyError
from repro.hardware import DomainBandwidthModel, machine


def test_domain_model_linear_then_flat():
    model = DomainBandwidthModel(peak_gbs=40.0, per_core_gbs=10.0)
    assert model.bandwidth(0) == 0.0
    assert model.bandwidth(1) == 10.0
    assert model.bandwidth(3) == 30.0
    assert model.bandwidth(4) == 40.0
    assert model.bandwidth(10) == 40.0  # saturated


def test_domain_model_efficiency_scales_curve():
    model = DomainBandwidthModel(peak_gbs=40.0, per_core_gbs=10.0, efficiency=0.5)
    assert model.bandwidth(4) == 20.0


def test_domain_model_validation():
    with pytest.raises(TopologyError):
        DomainBandwidthModel(0.0, 1.0)
    with pytest.raises(TopologyError):
        DomainBandwidthModel(10.0, 1.0, efficiency=1.5)
    with pytest.raises(TopologyError):
        DomainBandwidthModel(10.0, 1.0).bandwidth(-1)


def test_aggregate_bandwidth_sums_domains():
    m = machine("xeon-e5-2660v3")  # 2 domains x 59 GB/s, 11 GB/s per core
    mem = m.memory
    assert mem.aggregate_bandwidth(1) == pytest.approx(11.0)
    assert mem.aggregate_bandwidth(10) == pytest.approx(59.0)
    assert mem.aggregate_bandwidth(20) == pytest.approx(118.0)


def test_scatter_pinning_reaches_both_domains_early():
    mem = machine("xeon-e5-2660v3").memory
    assert mem.aggregate_bandwidth(2, pinning="scatter") == pytest.approx(22.0)
    # Compact: both workers in one socket -> same 22 (linear regime), but
    # at 8 workers compact is capped by one socket while scatter is not.
    assert mem.aggregate_bandwidth(8, pinning="compact") == pytest.approx(59.0)
    assert mem.aggregate_bandwidth(8, pinning="scatter") == pytest.approx(88.0)


def test_unknown_pinning_rejected():
    with pytest.raises(TopologyError):
        machine("a64fx").memory.aggregate_bandwidth(4, pinning="weird")


def test_lockstep_equals_aggregate_when_domains_balanced():
    mem = machine("kunpeng916").memory
    for cores in (16, 32, 48, 64):
        assert mem.lockstep_bandwidth(cores) == pytest.approx(
            mem.aggregate_bandwidth(cores)
        )


def test_lockstep_dips_with_partial_domain():
    """The Fig 5 mechanism: a partially populated domain drags the step."""
    mem = machine("kunpeng916").memory
    at_32 = mem.lockstep_bandwidth(32)
    at_40 = mem.lockstep_bandwidth(40)
    at_48 = mem.lockstep_bandwidth(48)
    assert at_40 < at_32  # the dip
    assert at_48 > at_32  # recovery once the third domain fills


def test_lockstep_never_exceeds_aggregate(any_machine):
    mem = any_machine.memory
    for cores in range(1, any_machine.spec.cores_per_node + 1):
        assert (
            mem.lockstep_bandwidth(cores) <= mem.aggregate_bandwidth(cores) + 1e-12
        )


def test_first_touch_equals_aggregate(any_machine):
    mem = any_machine.memory
    n = any_machine.spec.cores_per_node
    assert mem.first_touch_bandwidth(n) == mem.aggregate_bandwidth(n)
