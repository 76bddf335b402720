"""Tests for the execution-time model: the paper's headline numbers."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.hardware import machine
from repro.perf import (
    expected_peak_2d,
    scaling_factor,
    stencil1d_node_glups,
    stencil1d_time,
    stencil2d_glups,
    stencil2d_time,
)
from repro.perf.cost import (
    PAPER_GRID_2D,
    PAPER_GRID_2D_LARGE,
    transfers_per_update,
)


# 1D stencil: Fig 3 and Sec. VII-A -----------------------------------------------

class TestStencil1D:
    def test_xeon_strong_scaling_matches_paper(self):
        """'the application takes 28s ... and 3.8s ... the factor being 7.36'."""
        xeon = machine("xeon-e5-2660v3")
        assert stencil1d_time(xeon, 1) == pytest.approx(28.0, rel=0.05)
        assert stencil1d_time(xeon, 8) == pytest.approx(3.8, rel=0.05)
        assert scaling_factor(xeon, 8) == pytest.approx(7.36, rel=0.02)

    def test_a64fx_strong_scaling_matches_paper(self):
        """'18s ... and 2.5s ... the factor being ... 7.2'."""
        a64fx = machine("a64fx")
        assert stencil1d_time(a64fx, 1) == pytest.approx(18.0, rel=0.05)
        assert stencil1d_time(a64fx, 8) == pytest.approx(2.5, rel=0.05)
        assert scaling_factor(a64fx, 8) == pytest.approx(7.2, rel=0.02)

    def test_weak_scaling_flat_for_xeon_and_a64fx(self):
        """'12s and 7.5s respectively irrespective of the number of nodes'."""
        for name, expected in (("xeon-e5-2660v3", 12.0), ("a64fx", 7.5)):
            m = machine(name)
            times = [
                stencil1d_time(m, n, points_per_node=480_000_000)
                for n in (1, 2, 4, 8)
            ]
            assert times[0] == pytest.approx(expected, rel=0.05)
            # Flat: worst deviation < 5 %.
            assert max(times) / min(times) < 1.05

    def test_kunpeng_strong_scaling_is_poor(self):
        """Sec. VII-A: 'we do not observe linear scaling' on Kunpeng."""
        kunpeng = machine("kunpeng916")
        assert scaling_factor(kunpeng, 8) < 5.0
        # But the others scale well.
        assert scaling_factor(machine("thunderx2"), 8) > 6.5

    def test_kunpeng_weak_scaling_rises(self):
        """'a significant increase in execution times as we increase the
        number of nodes'."""
        kunpeng = machine("kunpeng916")
        times = [
            stencil1d_time(kunpeng, n, points_per_node=480_000_000)
            for n in (1, 2, 4, 8)
        ]
        assert times == sorted(times)
        assert times[-1] > 1.2 * times[0]

    def test_node_rate_ordering(self):
        """A64FX's fine-grain contention keeps its 1D rate far below the
        bandwidth ratio would suggest -- but still the fastest node."""
        rates = {
            name: stencil1d_node_glups(machine(name))
            for name in ("xeon-e5-2660v3", "kunpeng916", "thunderx2", "a64fx")
        }
        assert rates["a64fx"] > rates["xeon-e5-2660v3"]
        assert rates["thunderx2"] > rates["xeon-e5-2660v3"]
        # Bandwidth ratio a64fx/xeon is ~5.6x, the 1D rate ratio only ~1.5x.
        assert rates["a64fx"] / rates["xeon-e5-2660v3"] < 2.0

    def test_argument_validation(self):
        xeon = machine("xeon-e5-2660v3")
        with pytest.raises(ValidationError):
            stencil1d_time(xeon, 0)
        with pytest.raises(ValidationError):
            stencil1d_time(xeon, 2, total_points=1, points_per_node=1)


# 2D stencil: Figs 4-8 and Sec. VII-B ----------------------------------------------

class TestStencil2D:
    def test_a64fx_execution_times_match_paper(self):
        """'less than 2s for scalar and vector floats and about 3.5s for
        ... doubles while utilizing all 48 compute cores'."""
        a64fx = machine("a64fx")
        for mode in ("auto", "simd"):
            assert stencil2d_time(a64fx, np.float32, mode, 48) < 2.0
            assert stencil2d_time(a64fx, np.float64, mode, 48) == pytest.approx(
                3.5, rel=0.15
            )

    def test_a64fx_larger_grid_same_rate(self):
        """Fig 7: no performance benefit from the 1.5x grid."""
        a64fx = machine("a64fx")
        small = stencil2d_glups(a64fx, np.float32, "simd", 48)
        large_time = stencil2d_time(
            a64fx, np.float32, "simd", 48, grid=PAPER_GRID_2D_LARGE
        )
        ny, nx = PAPER_GRID_2D_LARGE
        large = (ny - 2) * (nx - 2) * 100 / large_time / 1e9
        assert large == pytest.approx(small, rel=1e-9)

    def test_a64fx_hbm_capacity_caps_the_grid_at_1_5x(self):
        """Sec. VII-B: the 131072 grid needs ~9 GB per buffer (doubles, two
        buffers = 18 GB), capping the largest testable size at ~1.5x."""
        ny, nx = PAPER_GRID_2D
        buffer_gb = ny * nx * 8 / 2**30
        assert buffer_gb == pytest.approx(8.0, rel=0.01)  # "9GB worth of DRAM"
        ny_l, nx_l = PAPER_GRID_2D_LARGE
        two_large_buffers_gb = 2 * ny_l * nx_l * 8 / 2**30
        assert two_large_buffers_gb < 32.0  # still fits HBM
        assert 2 * (ny_l * 1.5) * nx_l * 8 / 2**30 > 32.0  # another 1.5x would not

    def test_vectorization_gain_bands(self):
        """Sec. VII-B single-core improvement bands per machine."""
        bands = {
            "xeon-e5-2660v3": {"float32": (0.40, 0.60), "float64": (0.05, 0.15)},
            "kunpeng916": {"float32": (0.5, 0.9), "float64": (0.2, 0.9)},
            "thunderx2": {"float32": (0.50, 0.60), "float64": (0.30, 0.45)},
            "a64fx": {"float32": (0.05, 0.15), "float64": (0.05, 0.15)},
        }
        for name, per_dtype in bands.items():
            m = machine(name)
            for dtype_name, (lo, hi) in per_dtype.items():
                dtype = np.float32 if dtype_name == "float32" else np.float64
                auto = stencil2d_glups(m, dtype, "auto", 1)
                simd = stencil2d_glups(m, dtype, "simd", 1)
                gain = simd / auto - 1
                assert lo <= gain <= hi, f"{name} {dtype_name}: gain {gain:.2f}"

    def test_kunpeng_numa_dips(self):
        """Fig 5: dips when a NUMA domain is partially saturated."""
        kunpeng = machine("kunpeng916")
        glups = {
            c: stencil2d_glups(kunpeng, np.float32, "simd", c)
            for c in (32, 40, 48, 56, 64)
        }
        assert glups[40] < glups[32]  # the 32->40 drop
        assert glups[48] > glups[40]  # recovery
        assert glups[56] < glups[48]  # second dip
        assert glups[64] > glups[56]

    def test_kunpeng_vectorization_gain_up_to_80_percent(self):
        """Fig 5: 'up to 80% improvements' from explicit vectorization."""
        kunpeng = machine("kunpeng916")
        gains = [
            stencil2d_glups(kunpeng, np.float32, "simd", c)
            / stencil2d_glups(kunpeng, np.float32, "auto", c)
            - 1
            for c in (1, 8, 16, 32, 64)
        ]
        assert 0.6 <= max(gains) <= 0.85

    def test_kunpeng_is_the_slowest_machine_per_core(self):
        """Single NEON pipe + weak memory path."""
        slowest = stencil2d_glups(machine("kunpeng916"), np.float32, "auto", 1)
        for other in ("xeon-e5-2660v3", "thunderx2", "a64fx"):
            assert slowest < stencil2d_glups(machine(other), np.float32, "auto", 1)

    def test_a64fx_is_the_fastest_machine_by_far(self):
        """Fig 6: HBM puts the full A64FX node above 2x any other node."""
        a64fx_glups = stencil2d_glups(machine("a64fx"), np.float32, "simd", 48)
        for other in ("xeon-e5-2660v3", "kunpeng916", "thunderx2"):
            m = machine(other)
            other_glups = stencil2d_glups(m, np.float32, "simd", m.spec.cores_per_node)
            assert a64fx_glups > 2 * other_glups

    def test_a64fx_results_sit_between_peak_min_and_max(self):
        """Fig 6: measured points exceed the 3-transfers 'Expected Peak
        Min' (256-byte lines block implicitly) and stay under Peak Max."""
        a64fx = machine("a64fx")
        for cores in (16, 32, 48):
            achieved = stencil2d_glups(a64fx, np.float32, "simd", cores)
            peak_min = expected_peak_2d(a64fx, np.float32, cores, transfers=3)
            peak_max = expected_peak_2d(a64fx, np.float32, cores, transfers=2)
            assert achieved > peak_min * 0.9
            assert achieved <= peak_max

    def test_xeon_saturation_collapses_variants_onto_the_roofline(self):
        """Fig 4: at 20 cores both float variants sit on the same memory
        roofline, BW x AI x efficiency."""
        xeon = machine("xeon-e5-2660v3")
        auto = stencil2d_glups(xeon, np.float32, "auto", 20)
        simd = stencil2d_glups(xeon, np.float32, "simd", 20)
        assert auto == pytest.approx(simd, rel=1e-9)
        assert auto == pytest.approx(118.0 * 0.92 / 12.0, rel=1e-6)

    def test_tx2_near_optimal_at_full_node(self):
        """Fig 8: 'results also look nearly optimal for the given memory
        bandwidth' -- full-node BW x blocked float AI."""
        tx2 = machine("thunderx2")
        achieved = stencil2d_glups(tx2, np.float32, "simd", 64)
        assert achieved == pytest.approx(
            236.0 / 8.0 * tx2.calibration.stencil2d_efficiency
        )

    def test_blocking_transfers_switch(self):
        """TX2 doubles switch from 3 to 2 transfers at 16 cores (Fig 8's
        'interesting switch'); floats block from the start; the Xeon's
        64-byte lines never do."""
        tx2 = machine("thunderx2")
        assert transfers_per_update(tx2, np.float64, 8) == 3.0
        assert transfers_per_update(tx2, np.float64, 15) == 3.0
        assert transfers_per_update(tx2, np.float64, 16) == 2.0
        assert transfers_per_update(tx2, np.float64, 32) == 2.0
        # The switch shows as a visible uplift in the curve.
        per_core_15 = stencil2d_glups(tx2, np.float64, "simd", 15) / 15
        per_core_16 = stencil2d_glups(tx2, np.float64, "simd", 16) / 16
        assert per_core_16 > per_core_15
        assert transfers_per_update(tx2, np.float32, 1) == 2.0
        xeon = machine("xeon-e5-2660v3")
        for dtype in (np.float32, np.float64):
            assert transfers_per_update(xeon, dtype, 20) == 3.0

    def test_large_cache_line_machines_beat_3_transfer_peak(self):
        """Sec. VII-B: ~49 % boost over the 3-transfers expectation."""
        for name in ("a64fx", "thunderx2"):
            m = machine(name)
            n = m.spec.cores_per_node
            achieved = stencil2d_glups(m, np.float32, "simd", n)
            peak_min = expected_peak_2d(m, np.float32, n, transfers=3)
            ratio = achieved / (peak_min * m.calibration.stencil2d_efficiency)
            assert ratio == pytest.approx(1.5, abs=0.02)

    def test_expected_peak_lines_ordering(self, any_machine):
        n = any_machine.spec.cores_per_node
        peak_min = expected_peak_2d(any_machine, np.float32, n, transfers=3)
        peak_max = expected_peak_2d(any_machine, np.float32, n, transfers=2)
        assert peak_max == pytest.approx(1.5 * peak_min)
        achieved = stencil2d_glups(any_machine, np.float32, "simd", n)
        assert achieved <= peak_max

    def test_floats_roughly_twice_doubles_at_saturation(self, any_machine):
        n = any_machine.spec.cores_per_node
        f = stencil2d_glups(any_machine, np.float32, "simd", n)
        d = stencil2d_glups(any_machine, np.float64, "simd", n)
        assert f / d == pytest.approx(2.0, rel=0.15)

    def test_performance_never_negative_or_absurd(self, any_machine):
        for cores in (1, any_machine.spec.cores_per_node):
            g = stencil2d_glups(any_machine, np.float64, "auto", cores)
            assert 0 < g < 200

    def test_validation(self):
        xeon = machine("xeon-e5-2660v3")
        with pytest.raises(ValidationError):
            stencil2d_glups(xeon, np.float32, "warp", 4)
        with pytest.raises(ValidationError):
            stencil2d_glups(xeon, np.float32, "auto", 0)
        with pytest.raises(ValidationError):
            stencil2d_glups(xeon, np.float32, "auto", 21)
