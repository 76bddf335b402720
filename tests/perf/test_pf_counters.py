"""Unit tests for the counter model (Tables III-VI)."""

import pytest

from repro.errors import ValidationError
from repro.hardware import (
    PAPI_L2_TCM,
    PAPI_TOT_INS,
    STALL_BACKEND,
    STALL_FRONTEND,
    machine,
)
from repro.perf import COUNTER_GRID, COUNTER_STEPS, CounterModel
from repro.perf.counters import counter_lups


def test_counter_lups():
    assert counter_lups((4, 5), 10) == 2 * 3 * 10
    with pytest.raises(ValidationError):
        counter_lups((2, 5), 10)


def test_table3_regenerated_exactly():
    """Table III: Xeon instruction and cache-miss counts."""
    model = CounterModel(machine("xeon-e5-2660v3"))
    predicted = model.predict("float32", "auto")
    assert predicted[PAPI_TOT_INS] == pytest.approx(3.153e10, rel=1e-6)
    assert predicted[PAPI_L2_TCM] == pytest.approx(2.121e8, rel=1e-6)
    vec = model.predict("float32", "simd")
    assert vec[PAPI_TOT_INS] == pytest.approx(1.783e10, rel=1e-6)
    # ... and the auto code has *fewer* cache misses (GCC's x86 tuning).
    assert predicted[PAPI_L2_TCM] < vec[PAPI_L2_TCM]


def test_table4_regenerated_exactly():
    """Table IV: Kunpeng 916."""
    model = CounterModel(machine("kunpeng916"))
    row = model.predict("float64", "simd")
    assert row[PAPI_TOT_INS] == pytest.approx(8.236e10, rel=1e-6)


def test_table5_regenerated_exactly():
    """Table V: A64FX stall counters."""
    model = CounterModel(machine("a64fx"))
    row = model.predict("float64", "simd")
    assert row[PAPI_TOT_INS] == pytest.approx(2.956e10, rel=1e-6)
    assert row[STALL_FRONTEND] == pytest.approx(3.56e8, rel=1e-6)
    assert row[STALL_BACKEND] == pytest.approx(1.443e10, rel=1e-6)


def test_table6_regenerated_exactly():
    """Table VI: ThunderX2."""
    model = CounterModel(machine("thunderx2"))
    row = model.predict("float64", "auto")
    assert row[PAPI_TOT_INS] == pytest.approx(8.065e10, rel=1e-6)
    assert row[PAPI_L2_TCM] == pytest.approx(5.716e9, rel=1e-6)
    assert row[STALL_BACKEND] == pytest.approx(3.298e10, rel=1e-6)


def test_counters_scale_linearly_with_work():
    model = CounterModel(machine("kunpeng916"))
    base = model.predict("float32", "auto")
    double_steps = model.predict("float32", "auto", steps=2 * COUNTER_STEPS)
    assert double_steps[PAPI_TOT_INS] == pytest.approx(
        2 * base[PAPI_TOT_INS], rel=1e-9
    )


def test_xeon_scalar_vector_instruction_ratio_is_2x():
    """Sec. VII-B: 'a 2x difference in instruction count' on Xeon."""
    model = CounterModel(machine("xeon-e5-2660v3"))
    for dtype in ("float32", "float64"):
        auto = model.per_lup(dtype, "auto")[PAPI_TOT_INS]
        simd = model.per_lup(dtype, "simd")[PAPI_TOT_INS]
        assert auto / simd == pytest.approx(2.0, rel=0.15)


def test_kunpeng_auto_vectorizes_well():
    """Sec. VII-B: 'a mere 5% improvement in instruction count'."""
    model = CounterModel(machine("kunpeng916"))
    auto = model.per_lup("float32", "auto")[PAPI_TOT_INS]
    simd = model.per_lup("float32", "simd")[PAPI_TOT_INS]
    assert 1.0 < auto / simd < 1.10


def test_kunpeng_simd_reduces_cache_misses_10_to_20_percent():
    model = CounterModel(machine("kunpeng916"))
    for dtype in ("float32", "float64"):
        auto = model.per_lup(dtype, "auto")[PAPI_L2_TCM]
        simd = model.per_lup(dtype, "simd")[PAPI_L2_TCM]
        assert 0.08 < 1 - simd / auto < 0.25


def test_tx2_backend_stalls_drop_with_explicit_simd():
    """Sec. VII-B: outstanding load/stores noticeably lower with NSIMD."""
    model = CounterModel(machine("thunderx2"))
    auto = model.per_lup("float32", "auto")[STALL_BACKEND]
    simd = model.per_lup("float32", "simd")[STALL_BACKEND]
    assert simd < 0.5 * auto
    assert auto / simd == pytest.approx(2.36, rel=0.05)  # 1.522e10 / 6.437e9


def test_a64fx_backend_stalls_drop_with_explicit_simd():
    """Table V: 'significant reductions in CPU stalls for vectorized
    codes'."""
    model = CounterModel(machine("a64fx"))
    for dtype in ("float32", "float64"):
        auto = model.per_lup(dtype, "auto")[STALL_BACKEND]
        simd = model.per_lup(dtype, "simd")[STALL_BACKEND]
        assert simd < auto


def test_a64fx_gcc_beats_nsimd_on_instruction_count():
    """Sec. VII-B: 'GCC does a better job of optimizing the instruction
    count than our explicitly vectorized code' on A64FX."""
    model = CounterModel(machine("a64fx"))
    for dtype in ("float32", "float64"):
        auto = model.per_lup(dtype, "auto")[PAPI_TOT_INS]
        simd = model.per_lup(dtype, "simd")[PAPI_TOT_INS]
        assert auto < simd


def test_counter_names_per_machine():
    assert PAPI_L2_TCM in CounterModel(machine("xeon-e5-2660v3")).counter_names()
    assert STALL_BACKEND in CounterModel(machine("a64fx")).counter_names()
    assert STALL_FRONTEND not in CounterModel(machine("thunderx2")).counter_names()


def test_effective_vector_width_plausible(any_machine):
    """Implied widths must be positive and bounded by 2x the ISA lanes
    (dual pipes can retire two packs per cycle-equivalent)."""
    model = CounterModel(any_machine)
    for dtype, elem in (("float32", 4), ("float64", 8)):
        lanes = any_machine.spec.simd_lanes(elem)
        for mode in ("auto", "simd"):
            width = model.effective_vector_width(dtype, mode)
            assert 0 < width <= 2 * lanes + 1


def test_structural_estimate_within_band(any_machine):
    """Calibrated instructions/LUP within 3x of the structural estimate."""
    model = CounterModel(any_machine)
    for dtype in ("float32", "float64"):
        for mode in ("auto", "simd"):
            measured = model.per_lup(dtype, mode)[PAPI_TOT_INS]
            structural = model.structural_instructions_per_lup(dtype, mode)
            assert structural / 3 < measured < structural * 3


def test_traffic_per_lup():
    caches = machine("xeon-e5-2660v3").caches
    row_bytes = COUNTER_GRID[1] * 8
    assert caches.stencil_transfers_per_update(row_bytes, 8) == 24.0
    assert caches.stencil_transfers_per_update(row_bytes, 8, prefetch_blocking=True) == 16.0


def test_invalid_variant_rejected():
    model = CounterModel(machine("a64fx"))
    with pytest.raises(ValidationError):
        model.per_lup("float16", "auto")
    with pytest.raises(ValidationError):
        model.per_lup("float32", "gpu")
