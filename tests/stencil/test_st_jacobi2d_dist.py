"""Tests for the distributed 2D Jacobi (row-block decomposition)."""

import numpy as np
import pytest

from repro.config import Config
from repro.errors import ValidationError
from repro.resilience import FaultInjector
from repro.runtime import Runtime
from repro.stencil import (
    DistributedJacobi2D,
    Jacobi2D,
    Jacobi2DPartition,
    jacobi_dense_solution,
    jacobi_reference_step,
    jacobi2d_dist,
    max_error,
)


_MP = Config.from_mapping({"runtime.backend": "multiprocess"})


def hot_top(ny, nx):
    field = np.zeros((ny, nx))
    field[0, :] = 1.0
    return field


def reference(field, steps):
    out = np.array(field, dtype=np.float64)
    for _ in range(steps):
        out = jacobi_reference_step(out)
    return out


def run_distributed(field, steps, n_localities, parts_per_loc=1, machine="xeon-e5-2660v3"):
    ny, nx = field.shape
    with Runtime(machine=machine, n_localities=n_localities, workers_per_locality=2) as rt:
        solver = DistributedJacobi2D(rt, ny, nx, partitions_per_locality=parts_per_loc)
        solver.initialize(field)
        out = rt.run(lambda: solver.run(steps))
        makespan = rt.makespan
    return out, makespan


def test_matches_reference_two_localities():
    field = hot_top(18, 12)
    out, _ = run_distributed(field, 20, 2)
    assert max_error(out, reference(field, 20)) < 1e-12


def test_matches_reference_four_localities_two_parts_each():
    field = np.random.default_rng(3).random((18, 10))
    out, _ = run_distributed(field, 15, 4, parts_per_loc=2)
    assert max_error(out, reference(field, 15)) < 1e-12


def test_matches_shared_memory_solver():
    field = hot_top(10, 14)
    distributed, _ = run_distributed(field, 12, 2)
    shared = Jacobi2D(10, 14, np.float64)
    shared.initialize(field)
    assert np.array_equal(distributed, shared.run(12))


def test_boundaries_stay_fixed():
    field = np.random.default_rng(5).random((10, 8))
    out, _ = run_distributed(field, 10, 2)
    assert np.array_equal(out[0, :], field[0, :])
    assert np.array_equal(out[-1, :], field[-1, :])
    assert np.allclose(out[:, 0], field[:, 0])
    assert np.allclose(out[:, -1], field[:, -1])


def test_single_locality_degenerate():
    field = hot_top(6, 6)
    out, _ = run_distributed(field, 8, 1)
    assert max_error(out, reference(field, 8)) < 1e-13


def test_network_time_accrues():
    field = hot_top(18, 8)
    _, makespan = run_distributed(field, 10, 4)
    assert makespan > 0.0


def test_fortran_ordered_field_gives_the_c_ordered_bytes():
    """The kernel walks a block as one flat C-ordered range, so the
    partition stores its block C-ordered whatever the input's layout."""
    field = np.random.default_rng(7).random((18, 12))
    c_out, _ = run_distributed(field, 9, 2)
    f_out, _ = run_distributed(np.asfortranarray(field), 9, 2)
    assert f_out.tobytes() == c_out.tobytes() == reference(field, 9).tobytes()


def test_partition_and_restore_store_a_fortran_block_c_ordered():
    block = np.asfortranarray(np.random.default_rng(2).random((5, 7)))
    part = Jacobi2DPartition(block)
    assert part.u.flags.c_contiguous and np.array_equal(part.u, block)
    part.restore_state(dict(part.checkpoint_state(), u=block))
    assert part.u.flags.c_contiguous and np.array_equal(part.u, block)


def test_zero_steps_identity():
    field = np.random.default_rng(7).random((6, 6))
    out, _ = run_distributed(field, 0, 2)
    assert np.allclose(out, field)


def test_residual_decreases_towards_fixed_point():
    field = hot_top(10, 10)
    with Runtime(n_localities=2, workers_per_locality=2) as rt:
        solver = DistributedJacobi2D(rt, 10, 10)
        solver.initialize(field)
        rt.run(lambda: solver.run(5))
        early = rt.run(solver.residual)
        rt.run(lambda: solver.run(200))
        late = rt.run(solver.residual)
    assert late < early / 10


def test_converges_to_dense_solution():
    field = hot_top(10, 10)
    with Runtime(n_localities=2, workers_per_locality=2) as rt:
        solver = DistributedJacobi2D(rt, 10, 10)
        solver.initialize(field)
        out = rt.run(lambda: solver.run(2500))
    assert max_error(out, jacobi_dense_solution(field)) < 1e-9


def test_validation():
    with Runtime(n_localities=3, workers_per_locality=1) as rt:
        with pytest.raises(ValidationError):
            DistributedJacobi2D(rt, 12, 8)  # 10 interior rows vs 3 parts
        solver = DistributedJacobi2D(rt, 14, 8)
        with pytest.raises(ValidationError):
            solver.run(3)  # not initialised
        with pytest.raises(ValidationError):
            solver.initialize(np.zeros((14, 9)))
        solver.initialize(np.zeros((14, 8)))
        with pytest.raises(ValidationError):
            solver.run(-1)


def _gathered_residual(out):
    """RMS change one more sweep would make, off the gathered field."""
    diff = jacobi_reference_step(out)[1:-1, 1:-1] - out[1:-1, 1:-1]
    return float(np.sqrt(np.mean(diff * diff)))


@pytest.mark.parametrize(
    "parts_per_loc, machine, config",
    [(1, None, None), (2, None, None), (2, "xeon-e5-2660v3", None), (1, None, _MP)],
    ids=["1-part", "2-parts", "2-parts-network", "2-processes"],
)
def test_residual_reads_the_neighbours_current_edges(parts_per_loc, machine, config):
    """A partition's halo rows hold the edges its last step consumed; the
    residual of the stepped field needs the edges that step produced.
    It is taken in the job that ran the steps, where a neighbour's last
    edge can still be on its way (on a modelled network, in flight, or
    in another process).  It sweeps a copy: the field does not step."""
    field = np.random.default_rng(3).random((34, 16))
    with Runtime(
        machine=machine, n_localities=2, workers_per_locality=2, config=config
    ) as rt:
        solver = DistributedJacobi2D(rt, 34, 16, partitions_per_locality=parts_per_loc)
        solver.initialize(field)
        out, residual = rt.run(lambda: (solver.run(5), solver.residual()))
        assert residual == pytest.approx(_gathered_residual(out), rel=1e-12)
        assert rt.run(solver.residual) == residual  # reading consumed nothing
        assert rt.run(lambda: solver.run(3)).tobytes() == reference(field, 8).tobytes()


@pytest.mark.parametrize(
    "nx, itemsize, rows",
    [(2048, 8, 32), (2048, 4, 64), (4098, 4, 31), (65536, 8, 1), (1 << 20, 4, 1)],
)
def test_a_chunk_is_512_kib_of_rows_in_either_dtype(nx, itemsize, rows):
    """float32 rows are half as wide in bytes, so a chunk holds twice
    as many; a row wider than the chunk is a chunk of one row."""
    assert jacobi2d_dist._chunk_rows(nx, itemsize) == rows


@pytest.mark.parametrize(
    "shape, chunks",
    [((35, 2048), 2), ((100, 2048), 4), ((5, 65536), 3), ((3, 2048), 1)],
    ids=["32+1-rows", "3x32+2-rows", "1-row-chunks", "1-interior-row"],
)
def test_a_multi_chunk_block_sweeps_the_oracles_bits(shape, chunks):
    """Real block widths: the row-chunked kernel crosses ``chunks - 1``
    chunk boundaries, into a partial last chunk or one row at a time,
    bit for bit.  The sweep is in place, so the reference is taken
    first; three sweeps in a row, because a held row written back too
    early or a wall cell left stale only shows one step later."""
    ny, nx = shape
    rows = max(1, jacobi2d_dist._CHUNK_BYTES // (8 * nx))
    assert -(-(ny - 2) // rows) == chunks
    u = np.random.default_rng(11).standard_normal(shape) * 1e3
    scratch = jacobi2d_dist._scratch(shape)
    for _ in range(3):
        want = jacobi_reference_step(u)
        jacobi2d_dist._sweep(u, scratch)
        assert u.tobytes() == want.tobytes()


#: Two partitions of 34 rows at nx = 2048: each sweeps a chunk of 32 rows
#: and one of 2, so every step hands a held row across a chunk boundary.
MULTI_CHUNK = (70, 2048)
MULTI_CHUNK_STEPS = 12


def _crash_locality_1() -> FaultInjector:
    injector = FaultInjector(seed=7)
    injector.fail_locality(1, at=0.006, permanent=True)
    return injector


@pytest.mark.parametrize(
    "config, injector",
    [(None, None), (_MP, None), (None, _crash_locality_1)],
    ids=["virtual", "2-processes", "crash-rollback"],
)
def test_multi_chunk_partitions_give_the_oracles_bits(config, injector):
    """The chunk hand-off across processes and through a checkpoint
    rollback, whose ``restore_state`` replaces ``u`` mid-run."""
    ny, nx = MULTI_CHUNK
    assert (ny - 2) // 2 > jacobi2d_dist._chunk_rows(nx, 8)
    field = np.random.default_rng(13).random(MULTI_CHUNK)
    with Runtime(
        n_localities=2,
        workers_per_locality=1,
        config=config,
        fault_injector=injector and injector(),
    ) as rt:
        solver = DistributedJacobi2D(rt, ny, nx, cost_per_step=1e-3)
        solver.initialize(field)
        if injector is None:
            out = solver.run(MULTI_CHUNK_STEPS)
        else:
            out = solver.run_resilient(MULTI_CHUNK_STEPS, checkpoint_every=4)
            assert rt.checkpoints_restored == 1 and sorted(rt.decommissioned) == [1]
    assert out.tobytes() == reference(field, MULTI_CHUNK_STEPS).tobytes()
