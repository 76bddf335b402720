"""Property-based tests for the stencil solvers' mathematical invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.runtime import Runtime
from repro.simd.isa import AVX2, NEON
from repro.stencil import (
    Heat1DParams,
    Heat1DPartition,
    Heat1DPartitioned,
    Jacobi2D,
    Jacobi2DPartition,
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


#: Field values of every size the kernel sees, up to near overflow.
wide = st.one_of(any_sign, st.floats(min_value=-1e300, max_value=1e300))
#: A halo as it arrives: a Python float off the wire, or a NumPy scalar.
halo_value = st.one_of(wide, wide.map(np.float64))


@given(
    u=arrays(
        np.float64,
        st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 300)),
        elements=wide,
    ),
    left=halo_value,
    right=halo_value,
)
@example(u=np.array([5e15]), left=1e16, right=1.0)
@example(u=np.array([5e15, -2.5]), left=np.float64(1e16), right=1e-310)
@example(u=np.array([1.0, 5e15, 3.0]), left=-0.0, right=np.float64(1e16))
@settings(max_examples=80)
def test_heat1d_partition_step_is_the_oracle_bit_for_bit(rt, u, left, right):
    """One partition step over explicit halos gives the oracle's bytes
    for the haloed chunk, one point and two included: ``(left - 2u) +
    right`` is not ``(left + right) - 2u`` once magnitudes differ."""
    part = Heat1DPartition(u, PARAMS)
    part.connect(rt, None, None)  # open ends: nothing is shipped
    part.advance(0, left, right)
    haloed = np.concatenate(([left], u, [right]))
    assert part.u.tobytes() == heat1d_reference(haloed, 1, PARAMS)[1:-1].tobytes()



def _haloed_block(shape):
    """A partition block and its two halos, each a row or ``None``."""
    halo = st.one_of(st.none(), arrays(np.float64, shape[1], elements=any_sign))
    return st.tuples(arrays(np.float64, shape, elements=any_sign), halo, halo)


@pytest.fixture(scope="module")
def rt():
    with Runtime(n_localities=1, workers_per_locality=1) as runtime:
        yield runtime


@given(case=st.tuples(st.integers(3, 40), st.integers(3, 40)).flatmap(_haloed_block))
@example(case=(np.arange(9.0).reshape(3, 3), None, None))
@example(case=(np.arange(21.0).reshape(3, 7), np.full(7, -2.5), None))
@example(case=(np.arange(21.0).reshape(7, 3), None, np.array([1e-310, 4.0, -1.0])))
@settings(max_examples=80)
def test_jacobi_partition_step_is_the_oracle_bit_for_bit(rt, case):
    """The partition's flat-pass kernel gives the whole-grid oracle's
    bytes for the haloed block, halo rows and side walls included, and
    its residual is the oracle's."""
    block, up, down = case
    part = Jacobi2DPartition(block)
    part.connect(rt, None, None)  # open ends: nothing is shipped
    haloed = np.array(block)
    haloed[0] = haloed[0] if up is None else up
    haloed[-1] = haloed[-1] if down is None else down
    part.advance(0, up, down)
    want = jacobi_reference_step(haloed)
    assert part.u.tobytes() == want.tobytes()
    diff = jacobi_reference_step(want)[1:-1, 1:-1] - want[1:-1, 1:-1]
    assert part.local_residual() == float(np.sum(diff * diff))


def _field_and_divisor(n):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return st.tuples(arrays(np.float64, n, elements=wide), st.sampled_from(divisors))


@given(
    case=st.one_of(st.sampled_from([1, 2, 3, 48]), st.integers(1, 300)).flatmap(
        _field_and_divisor
    ),
    steps=st.integers(0, 25),
)
@example(case=(np.array([5e15, 1e16, 1.0, -7.0]), 2), steps=3)
@settings(max_examples=60)
def test_partitioned_solver_agnostic_to_partition_count(case, steps):
    """Any partitioning of Listing 1's solver gives the oracle's field
    bit for bit: every chunk runs the oracle's operations in its order."""
    u0, nlp = case
    solver = Heat1DPartitioned(u0.shape[0], nlp, PARAMS)
    solver.initialize(u0)
    assert solver.run(steps).tobytes() == heat1d_reference(u0, steps, PARAMS).tobytes()


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
