"""Property-based tests for the stencil solvers' mathematical invariants."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.simd.isa import AVX2, NEON
from repro.stencil import (
    Heat1DParams,
    Heat1DPartitioned,
    Jacobi2D,
    heat1d_reference,
    heat1d_steps,
    jacobi_reference_step,
    max_error,
)

PARAMS = Heat1DParams()

bounded = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@given(u0=arrays(np.float64, 32, elements=bounded), steps=st.integers(0, 30))
@settings(max_examples=40)
def test_heat1d_conserves_mass(u0, steps):
    """Periodic diffusion conserves the discrete integral exactly."""
    u1 = heat1d_reference(u0, steps, PARAMS)
    assert u1.sum() == np.float64(u0).sum() or abs(u1.sum() - u0.sum()) < 1e-8


@given(u0=arrays(np.float64, 24, elements=bounded), steps=st.integers(0, 20))
@settings(max_examples=40)
def test_heat1d_maximum_principle(u0, steps):
    """Diffusion never creates new extrema (k <= 1/2 stability)."""
    u1 = heat1d_reference(u0, steps, PARAMS)
    assert u1.max() <= u0.max() + 1e-9
    assert u1.min() >= u0.min() - 1e-9


@given(
    a=arrays(np.float64, 16, elements=bounded),
    b=arrays(np.float64, 16, elements=bounded),
    steps=st.integers(0, 15),
)
@settings(max_examples=40)
def test_heat1d_linearity(a, b, steps):
    """The stencil operator is linear: S(a + b) = S(a) + S(b)."""
    combined = heat1d_reference(a + b, steps, PARAMS)
    separate = heat1d_reference(a, steps, PARAMS) + heat1d_reference(b, steps, PARAMS)
    assert np.allclose(combined, separate, atol=1e-7)


#: Signed values of ordinary size, and the subnormal range on its own,
#: where every product underflows and rounds.
any_sign = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),
)


@given(
    u0=arrays(
        np.float64,
        st.one_of(st.sampled_from([1, 2, 3]), st.integers(0, 300)),
        elements=any_sign,
    ),
    steps=st.integers(0, 60),
)
@example(u0=np.array([-1.5]), steps=7)
@example(u0=np.array([3.0, -5e-324]), steps=60)
@example(u0=np.array([1e-310, -2.0, 7.25]), steps=13)
@settings(max_examples=80)
def test_heat1d_steps_is_the_oracle_bit_for_bit(u0, steps):
    """The solvers' kernel over the whole periodic field performs the
    oracle's IEEE operations in the oracle's order, ends included."""
    got = heat1d_steps(u0, steps, PARAMS)
    assert got.tobytes() == heat1d_reference(u0, steps, PARAMS).tobytes()


@given(
    u0=arrays(np.float64, 48, elements=bounded),
    nlp=st.sampled_from([1, 2, 3, 4, 6, 8]),
    steps=st.integers(0, 25),
)
@settings(max_examples=30)
def test_partitioned_solver_agnostic_to_partition_count(u0, nlp, steps):
    """Any partitioning produces the identical field (bitwise-stable
    arithmetic order within chunks differs, so allow roundoff)."""
    solver = Heat1DPartitioned(48, nlp, PARAMS)
    solver.initialize(u0)
    out = solver.run(steps)
    assert np.allclose(out, heat1d_reference(u0, steps, PARAMS), atol=1e-9)


@given(
    field=arrays(np.float64, (7, 9), elements=bounded),
    steps=st.integers(0, 10),
)
@settings(max_examples=40)
def test_jacobi_maximum_principle(field, steps):
    """Jacobi averaging keeps the interior inside the initial hull."""
    solver = Jacobi2D(7, 9, np.float64)
    solver.initialize(field)
    out = solver.run(steps)
    assert out.max() <= field.max() + 1e-9
    assert out.min() >= field.min() - 1e-9


@given(field=arrays(np.float64, (6, 10), elements=bounded), steps=st.integers(0, 12))
@settings(max_examples=40)
def test_jacobi_row_driver_equals_whole_grid_reference(field, steps):
    solver = Jacobi2D(6, 10, np.float64)
    solver.initialize(field)
    out = solver.run(steps)
    ref = np.array(field)
    for _ in range(steps):
        ref = jacobi_reference_step(ref)
    assert max_error(out, ref) < 1e-12


@given(
    field=arrays(np.float64, (5, 18), elements=bounded),
    isa=st.sampled_from([NEON, AVX2]),
    steps=st.integers(0, 10),
)
@settings(max_examples=40)
def test_jacobi_simd_equals_auto_for_random_fields(field, isa, steps):
    """The VNS kernel is *exactly* the scalar kernel, for any input."""
    auto = Jacobi2D(5, 18, np.float64, mode="auto")
    auto.initialize(field)
    simd = Jacobi2D(5, 18, np.float64, mode="simd", isa=isa)
    simd.initialize(field)
    assert max_error(auto.run(steps), simd.run(steps)) == 0.0


@given(field=arrays(np.float64, (6, 8), elements=bounded))
@settings(max_examples=30)
def test_jacobi_fixed_point_of_constant_field(field):
    """A constant field is a fixed point of the Jacobi sweep."""
    constant = np.full((6, 8), float(field[0, 0]))
    solver = Jacobi2D(6, 8, np.float64)
    solver.initialize(constant)
    assert max_error(solver.run(5), constant) == 0.0
