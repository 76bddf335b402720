"""Unit tests for the topology tree and pinning."""

import pytest

from repro.errors import PinningError, TopologyError
from repro.hardware import CpuSet, machine


def test_cpuset_preserves_order_and_dedups():
    cs = CpuSet([3, 1, 3, 2])
    assert list(cs) == [3, 1, 2]
    assert len(cs) == 3


def test_cpuset_negative_rejected():
    with pytest.raises(TopologyError):
        CpuSet([-1])


def test_cpuset_set_operations():
    a = CpuSet([0, 1, 2])
    b = CpuSet([2, 3])
    assert a.first(2) == CpuSet([0, 1])


def test_cpuset_equality_ignores_order():
    assert CpuSet([1, 2]) == CpuSet([2, 1])
    assert hash(CpuSet([1, 2])) == hash(CpuSet([2, 1]))


def test_machine_tree_shape_xeon():
    topo = machine("xeon-e5-2660v3").topology
    assert len(topo.sockets) == 2
    assert len(topo.domains) == 2
    assert topo.n_cores == 20
    # 2 SMT threads per core
    assert len(topo.cores[0].pus) == 2


def test_machine_tree_shape_a64fx():
    topo = machine("a64fx").topology
    assert len(topo.domains) == 4  # CMGs
    assert topo.n_cores == 48
    assert all(d.n_cores == 12 for d in topo.domains)


def test_core_lookup_and_domain():
    topo = machine("kunpeng916").topology
    core = topo.core(17)
    assert core.core_id == 17
    assert core.domain_id == 1  # 16 cores per domain


def test_core_lookup_out_of_range():
    with pytest.raises(TopologyError):
        machine("a64fx").topology.core(48)


def test_pin_compact_uses_first_smt_thread():
    topo = machine("xeon-e5-2660v3").topology  # 2 PUs per core
    cpuset = topo.pin_compact(3)
    # PUs 0,2,4: the physical (smt 0) PU of cores 0,1,2.
    assert list(cpuset) == [0, 2, 4]


def test_pin_compact_fills_domains_in_order():
    m = machine("kunpeng916")
    counts = m.topology.cores_per_domain_for(m.topology.pin_compact(40))
    assert counts == {0: 16, 1: 16, 2: 8}


def test_pin_scatter_round_robins_domains():
    m = machine("kunpeng916")
    counts = m.topology.cores_per_domain_for(m.topology.pin_scatter(6))
    assert counts == {0: 2, 1: 2, 2: 1, 3: 1}


def test_pin_too_many_workers_rejected():
    topo = machine("thunderx2").topology
    with pytest.raises(PinningError):
        topo.pin_compact(topo.n_cores + 1)
    with pytest.raises(PinningError):
        topo.pin_scatter(0)


def test_cores_per_domain_for_unknown_pu():
    m = machine("a64fx")
    with pytest.raises(PinningError):
        m.topology.cores_per_domain_for(CpuSet([10_000]))


def test_all_machines_have_consistent_trees(any_machine):
    topo = any_machine.topology
    spec = any_machine.spec
    assert topo.n_cores == spec.cores_per_node
    assert len(topo.domains) == spec.numa_domains
    pu_ids = [pu.pu_id for c in topo.cores for pu in c.pus]
    assert pu_ids == sorted(pu_ids)
    assert len(set(pu_ids)) == len(pu_ids) == spec.cores_per_node * spec.threads_per_core
