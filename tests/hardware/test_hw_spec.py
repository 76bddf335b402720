"""Unit tests for ProcessorSpec (Table I facts)."""

import pytest

from repro.errors import TopologyError
from repro.hardware import ProcessorSpec


def make_spec(**overrides):
    base = dict(
        name="Test CPU",
        vendor="ACME",
        clock_ghz=2.0,
        cores_per_processor=8,
        processors_per_node=2,
        threads_per_core=2,
        vector_pipeline="Double TEST Pipeline",
        dp_flops_per_cycle=8,
        isa="neon",
        vector_bits=128,
        simd_pipelines=2,
        numa_domains=2,
    )
    base.update(overrides)
    return ProcessorSpec(**base)


def test_cores_per_node():
    assert make_spec().cores_per_node == 16


def test_cores_per_domain():
    assert make_spec().cores_per_domain == 8


def test_peak_gflops_formula():
    # 2.0 GHz x 8 FLOP/cycle x 16 cores = 256 GFLOP/s
    assert make_spec().peak_gflops == pytest.approx(256.0)


def test_simd_lanes():
    spec = make_spec(vector_bits=256)
    assert spec.simd_lanes(4) == 8
    assert spec.simd_lanes(8) == 4


def test_simd_lanes_bad_width():
    with pytest.raises(TopologyError):
        make_spec().simd_lanes(3)


def test_invalid_clock_rejected():
    with pytest.raises(TopologyError):
        make_spec(clock_ghz=0.0)


def test_uneven_numa_split_rejected():
    with pytest.raises(TopologyError):
        make_spec(numa_domains=3)


def test_invalid_vector_width_rejected():
    with pytest.raises(TopologyError):
        make_spec(vector_bits=96)


def test_table1_row_plain():
    row = make_spec().table1_row()
    assert row["Cores per processors"] == "8"
    assert row["Peak Performance in GFLOP/s"] == "256"


def test_table1_row_with_helpers():
    row = make_spec(helper_cores=4).table1_row()
    assert "helper" in row["Cores per processors"]
