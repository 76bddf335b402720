"""Unit and integration tests for the 2D Jacobi solver."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.runtime import par
from repro.simd.isa import AVX2, NEON, sve
from repro.stencil import (
    Jacobi2D,
    jacobi2d_dist,
    jacobi_dense_solution,
    jacobi_reference_step,
    max_error,
)


def reference_solution(field, steps, dtype=np.float64):
    out = np.array(field, dtype=dtype)
    for _ in range(steps):
        out = jacobi_reference_step(out)
    return out


def hot_top(ny, nx):
    field = np.zeros((ny, nx))
    field[0, :] = 1.0
    return field


class TestAutoKernel:
    def test_matches_dense_reference(self):
        field = hot_top(10, 18)
        solver = Jacobi2D(10, 18, np.float64, mode="auto")
        solver.initialize(field)
        out = solver.run(30)
        assert np.array_equal(out, reference_solution(field, 30))

    def test_boundaries_never_change(self):
        field = np.random.default_rng(1).random((8, 12))
        solver = Jacobi2D(8, 12, np.float64, mode="auto")
        solver.initialize(field)
        out = solver.run(20)
        assert np.array_equal(out[0, :], field[0, :])
        assert np.array_equal(out[-1, :], field[-1, :])
        assert np.array_equal(out[:, 0], field[:, 0])
        assert np.array_equal(out[:, -1], field[:, -1])

    def test_default_initialization_is_hot_top(self):
        solver = Jacobi2D(6, 8, np.float64)
        solver.initialize()
        assert solver.solution()[0, :].tolist() == [1.0] * 8

    def test_converges_to_harmonic_solution(self):
        field = hot_top(10, 10)
        solver = Jacobi2D(10, 10, np.float64)
        solver.initialize(field)
        out = solver.run(2000)
        assert max_error(out, jacobi_dense_solution(field)) < 1e-10


class TestSimdKernel:
    @pytest.mark.parametrize("isa", [AVX2, NEON, sve(512)], ids=["avx2", "neon", "sve512"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_simd_matches_auto_exactly(self, isa, dtype):
        lanes = isa.lanes(dtype)
        nx = 2 + lanes * 6
        field = np.random.default_rng(2).random((9, nx))
        auto = Jacobi2D(9, nx, dtype, mode="auto")
        auto.initialize(field)
        simd = Jacobi2D(9, nx, dtype, mode="simd", isa=isa)
        simd.initialize(field)
        assert max_error(auto.run(25), simd.run(25)) == 0.0

    def test_simd_needs_isa(self):
        with pytest.raises(ValidationError):
            Jacobi2D(8, 10, mode="simd")

    def test_lanes_follow_isa_and_dtype(self):
        assert Jacobi2D(8, 34, np.float32, mode="simd", isa=AVX2).lanes == 8
        assert Jacobi2D(8, 34, np.float64, mode="simd", isa=sve(512)).lanes == 8


#: 80 interior rows of width 2 + 16 * 256 (whole packs for every ISA
#: below) in ``for_each_block`` chunks of 40 rows: each chunk spans two
#: L2 runs of rows in float32 (31 + 9) and three in float64 (15 + 15 + 10).
SPANNING = (82, 4098)
SPANNING_CHUNK = 40


@pytest.mark.parametrize(
    "mode, isa",
    [("auto", None), ("simd", NEON), ("simd", AVX2), ("simd", sve(512))],
    ids=["auto", "simd-neon", "simd-avx2", "simd-sve512"],
)
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_every_variant_is_the_reference_in_its_dtype(rt, mode, isa, dtype):
    """The paper's four variants (float and double, auto and explicit
    SIMD) give the oracle's bits computed in their own dtype, under
    ``par``, with every chunk crossing a run-of-rows boundary."""
    ny, nx = SPANNING
    assert SPANNING_CHUNK > jacobi2d_dist._chunk_rows(nx, np.dtype(dtype).itemsize)
    field = np.random.default_rng(5).random(SPANNING)
    solver = Jacobi2D(ny, nx, dtype, mode=mode, isa=isa)
    solver.initialize(field)
    out = rt.run(lambda: solver.run(6, par.with_chunk_size(SPANNING_CHUNK)))
    assert out.dtype == np.dtype(dtype)
    assert np.array_equal(out, reference_solution(field, 6, dtype))


class TestDriver:
    def test_parallel_run_matches_sequential(self, rt):
        field = hot_top(16, 20)
        seq_solver = Jacobi2D(16, 20, np.float64)
        seq_solver.initialize(field)
        expected = seq_solver.run(15)

        par_solver = Jacobi2D(16, 20, np.float64)
        par_solver.initialize(field)
        out = rt.run(lambda: par_solver.run(15, par))
        assert max_error(out, expected) == 0.0

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValidationError):
            Jacobi2D(8, 10, mode="gpu")

    def test_initialize_shape_checked(self):
        solver = Jacobi2D(8, 10)
        with pytest.raises(ValidationError):
            solver.initialize(np.zeros((8, 11)))

    def test_negative_steps_rejected(self):
        solver = Jacobi2D(8, 10)
        solver.initialize()
        with pytest.raises(ValidationError):
            solver.run(-1)

    def test_lup_accounting(self):
        solver = Jacobi2D(10, 12)
        solver.initialize()
        solver.run(5)
        assert solver.lattice_site_updates == 8 * 10 * 5

    def test_incremental_runs_compose(self):
        field = hot_top(8, 10)
        a = Jacobi2D(8, 10, np.float64)
        a.initialize(field)
        a.run(7)
        out = a.run(8)
        assert np.array_equal(out, reference_solution(field, 15))

    def test_float32_accumulates_like_float64_reference(self):
        """float32 runs deviate only by rounding, not by structure."""
        field = hot_top(12, 14)
        solver = Jacobi2D(12, 14, np.float32)
        solver.initialize(field)
        out = solver.run(50)
        assert max_error(out, reference_solution(field, 50)) < 1e-5


class TestFusedBlocks:
    """The layout picks the sweep: scalar rows go in blocks, the VNS
    layout row by row (its halo shuffle is per row) -- same bits."""

    def test_simd_layout_always_runs_per_row(self):
        field = hot_top(12, 34)
        simd_solver = Jacobi2D(12, 34, np.float64, mode="simd", isa=AVX2)
        simd_solver.initialize(field)
        auto_solver = Jacobi2D(12, 34, np.float64)
        auto_solver.initialize(field)
        out_simd = simd_solver.run(10)
        out_auto = auto_solver.run(10)
        assert max_error(out_simd, out_auto) == 0.0
