"""Tests: the counter-derived cycle model agrees with the calibrated
single-core rates (the two calibrations tell one story)."""

import pytest

from repro.errors import ValidationError
from repro.hardware import machine
from repro.perf.cyclemodel import (
    issue_ipc,
    predicted_cycles_per_lup,
    predicted_single_core_glups,
)


@pytest.mark.parametrize("name", ["a64fx", "thunderx2"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("mode", ["auto", "simd"])
def test_counter_implied_rate_brackets_calibrated_rate(name, dtype, mode):
    """Within 30 %: the counter tables and the performance bands are
    independent sources and must roughly agree (``pytest -s`` prints
    each residual)."""
    m = machine(name)
    implied = predicted_single_core_glups(m, dtype, mode)
    calibrated = m.calibration.single_core_glups[(dtype, mode)]
    residual = (
        f"{name} {dtype}/{mode}: counters imply {implied:.2f} GLUP/s, "
        f"registry says {calibrated:.2f} ({implied / calibrated - 1:+.0%})"
    )
    print(residual)
    assert implied == pytest.approx(calibrated, rel=0.30), residual


@pytest.mark.parametrize("name", ["a64fx", "thunderx2"])
def test_stall_reduction_shows_up_as_speedup(name):
    """Explicit vectorization cuts backend stalls (Tables V/VI); the
    cycle model must turn that into a higher implied rate for floats."""
    m = machine(name)
    auto = predicted_single_core_glups(m, "float32", "auto")
    simd = predicted_single_core_glups(m, "float32", "simd")
    assert simd > auto


def test_tx2_float_gain_magnitude():
    """TX2's 2.4x backend-stall drop plus dual-issued packs imply a
    ~50-75 % rate gain, consistent with the paper's 50-60 % band."""
    m = machine("thunderx2")
    gain = (
        predicted_single_core_glups(m, "float32", "simd")
        / predicted_single_core_glups(m, "float32", "auto")
        - 1
    )
    assert 0.45 <= gain <= 0.80


def test_a64fx_modest_gain():
    """A64FX's stall drop is small; implied gain must be < 20 %."""
    m = machine("a64fx")
    gain = (
        predicted_single_core_glups(m, "float32", "simd")
        / predicted_single_core_glups(m, "float32", "auto")
        - 1
    )
    assert 0.0 < gain < 0.20


def test_doubles_slower_than_floats():
    for name in ("a64fx", "thunderx2"):
        m = machine(name)
        for mode in ("auto", "simd"):
            assert predicted_cycles_per_lup(m, "float64", mode) > (
                predicted_cycles_per_lup(m, "float32", mode)
            )


def test_machines_without_stall_counters_rejected():
    with pytest.raises(ValidationError):
        issue_ipc(machine("xeon-e5-2660v3"))
    with pytest.raises(ValidationError):
        predicted_single_core_glups(machine("kunpeng916"), "float32", "auto")
