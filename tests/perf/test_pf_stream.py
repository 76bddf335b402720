"""Unit tests for the STREAM benchmark (model and host)."""

import pytest

from repro.errors import ValidationError
from repro.hardware import machine
from repro.perf import stream_host, stream_model
from repro.perf.stream import PAPER_ARRAY_ELEMENTS, STREAM_KERNELS


def test_model_full_node_values():
    """Fig 2 plateau levels from the calibrated memory models."""
    assert stream_model(machine("xeon-e5-2660v3"), 20).bandwidth_gbs == pytest.approx(118.0)
    assert stream_model(machine("kunpeng916"), 64).bandwidth_gbs == pytest.approx(102.4)
    assert stream_model(machine("thunderx2"), 64).bandwidth_gbs == pytest.approx(236.0)
    assert stream_model(machine("a64fx"), 48).bandwidth_gbs == pytest.approx(660.0)


def test_model_curve_monotone_nondecreasing(any_machine):
    values = [
        stream_model(any_machine, c).bandwidth_gbs
        for c in range(1, any_machine.spec.cores_per_node + 1)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_model_single_core(any_machine):
    one = stream_model(any_machine, 1).bandwidth_gbs
    assert one == pytest.approx(any_machine.memory.domain_model.per_core_gbs)


def test_model_saturates_before_full_node():
    """Each NUMA domain saturates with fewer cores than it has (the
    classic STREAM shape) on every machine except Kunpeng, whose domains
    are linear to the last core."""
    for name in ("xeon-e5-2660v3", "thunderx2", "a64fx"):
        m = machine(name)
        domain_cores = m.spec.cores_per_domain
        half = stream_model(m, domain_cores // 2).bandwidth_gbs
        full = stream_model(m, domain_cores).bandwidth_gbs
        assert full < 2 * half  # sub-linear: saturation before full domain


def test_model_default_array_size_is_papers():
    assert stream_model(machine("a64fx"), 1).array_elements == PAPER_ARRAY_ELEMENTS


def test_model_validation():
    with pytest.raises(ValidationError):
        stream_model(machine("a64fx"), 1, kernel="wipe")
    with pytest.raises(ValidationError):
        stream_model(machine("a64fx"), 1, array_elements=0)


def test_host_stream_runs_and_reports_positive_bandwidth():
    result = stream_host(array_elements=200_000, repeats=2)
    assert result.bandwidth_gbs > 0.1
    assert result.kernel == "copy"


@pytest.mark.parametrize("kernel", sorted(STREAM_KERNELS))
def test_host_all_kernels(kernel):
    result = stream_host(array_elements=100_000, repeats=1, kernel=kernel)
    assert result.bandwidth_gbs > 0


def test_host_validation():
    with pytest.raises(ValidationError):
        stream_host(kernel="blast")
    with pytest.raises(ValidationError):
        stream_host(array_elements=-1)
    with pytest.raises(ValidationError):
        stream_host(repeats=0)
