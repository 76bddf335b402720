"""Unit and integration tests for the 1D heat solvers."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.runtime import Runtime
from repro.stencil import (
    DistributedHeat1D,
    Heat1DParams,
    analytic_heat_profile,
    discrete_heat_decay_factor,
    heat1d_reference,
    heat1d_steps,
    l2_error,
)


PARAMS = Heat1DParams()


def test_params_validation():
    with pytest.raises(ValidationError):
        Heat1DParams(alpha=-1)
    with pytest.raises(ValidationError):
        Heat1DParams(dt=0)
    Heat1DParams(dt=1e-5).check_stability()
    with pytest.raises(ValidationError):
        Heat1DParams(dt=1.0).check_stability()


def test_reference_conserves_mass():
    """The periodic stencil conserves the field's sum exactly."""
    u0 = np.linspace(0, 1, 32)
    u1 = heat1d_reference(u0, 50, PARAMS)
    assert u1.sum() == pytest.approx(u0.sum(), rel=1e-12)


def test_reference_damps_fourier_mode_exactly():
    u0 = analytic_heat_profile(128, mode=3)
    u1 = heat1d_reference(u0, 200, PARAMS)
    factor = discrete_heat_decay_factor(128, 3, PARAMS, 200)
    assert np.max(np.abs(u1 - factor * u0)) < 1e-12


def test_reference_zero_steps_identity():
    u0 = np.random.default_rng(0).random(16)
    assert np.array_equal(heat1d_reference(u0, 0, PARAMS), u0)
    with pytest.raises(ValidationError):
        heat1d_reference(u0, -1, PARAMS)


class TestSteps:
    """``heat1d_steps`` takes the oracle's edge cases the oracle's way."""

    def test_negative_steps_refused_like_the_oracle(self):
        with pytest.raises(ValidationError, match="non-negative"):
            heat1d_steps(np.zeros(4), -1, PARAMS)

    @pytest.mark.parametrize("steps", [0, 3])
    def test_empty_field_is_an_empty_copy(self, steps):
        out = heat1d_steps(np.empty(0), steps, PARAMS)
        assert out.dtype == np.float64 and out.shape == (0,)
        assert out.tobytes() == heat1d_reference(np.empty(0), steps, PARAMS).tobytes()

    def test_zero_steps_is_a_float64_copy(self):
        u0 = np.arange(8, dtype=np.int64)
        out = heat1d_steps(u0, 0, PARAMS)
        assert out.dtype == np.float64 and np.array_equal(out, u0)
        out[0] = 99.0
        assert u0[0] == 0


# Distributed (Fig 3's application) ---------------------------------------------

class TestDistributed:
    def run_distributed(self, n_localities, parts_per_loc, nx=64, steps=25):
        u0 = analytic_heat_profile(nx)
        with Runtime(
            machine="xeon-e5-2660v3",
            n_localities=n_localities,
            workers_per_locality=2,
        ) as rt:
            solver = DistributedHeat1D(
                rt, nx, PARAMS, partitions_per_locality=parts_per_loc
            )
            solver.initialize(u0)
            out = rt.run(lambda: solver.run(steps))
            makespan = rt.makespan
        return out, heat1d_reference(u0, steps, PARAMS), makespan

    def test_two_localities_match_reference(self):
        out, ref, _ = self.run_distributed(2, 1)
        assert l2_error(out, ref) < 1e-13

    def test_four_localities_two_partitions_each(self):
        out, ref, _ = self.run_distributed(4, 2)
        assert l2_error(out, ref) < 1e-13

    def test_single_locality(self):
        out, ref, _ = self.run_distributed(1, 4)
        assert l2_error(out, ref) < 1e-13

    def test_network_time_appears_in_makespan(self):
        _, _, makespan = self.run_distributed(4, 1)
        assert makespan > 0.0

    def test_validation(self):
        with Runtime(n_localities=2, workers_per_locality=1) as rt:
            with pytest.raises(ValidationError):
                DistributedHeat1D(rt, 63, PARAMS)  # does not split over 2
            solver = DistributedHeat1D(rt, 64, PARAMS)
            with pytest.raises(ValidationError):
                solver.run(5)  # not initialised
            solver.initialize(analytic_heat_profile(64))
            with pytest.raises(ValidationError):
                solver.initialize(np.zeros(63))

    def test_zero_steps(self):
        u0 = analytic_heat_profile(32)
        with Runtime(n_localities=2, workers_per_locality=1) as rt:
            solver = DistributedHeat1D(rt, 32, PARAMS)
            solver.initialize(u0)
            out = rt.run(lambda: solver.run(0))
        assert np.allclose(out, u0)

