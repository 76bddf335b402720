"""Cross-backend bit-identity: the backend may only change *where* work
runs, never *what* it computes.

The same stencil problem, partitioned identically, must produce
bit-identical fields on the virtual-clock backend and on real OS
processes -- the multiprocess analogue of the determinism suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import Config
from repro.runtime.runtime import Runtime
from repro.stencil import DistributedHeat1D, Heat1DParams, analytic_heat_profile
from repro.stencil.heat1d import heat1d_reference
from repro.stencil.jacobi2d_dist import DistributedJacobi2D

_MP = Config.from_mapping({"runtime.backend": "multiprocess"})

#: Total partitions, held constant while the process count varies so the
#: numerics cannot depend on P.
_PARTS = 4


def _run(config, processes, job):
    """``job(rt)`` on one locality per process; backend counters are read
    after shutdown, when the workers' statistics reach the driver."""
    with Runtime(
        n_localities=processes, workers_per_locality=1, config=config
    ) as rt:
        result = job(rt)
    return result, rt.backend.counters()


def _heat1d(rt):
    solver = DistributedHeat1D(
        rt, 64, Heat1DParams(), partitions_per_locality=_PARTS // rt.n_localities
    )
    solver.initialize(analytic_heat_profile(64))
    return solver.run(12)


def _jacobi2d(rt):
    ny, nx = 18, 12
    solver = DistributedJacobi2D(
        rt, ny, nx, partitions_per_locality=_PARTS // rt.n_localities
    )
    solver.initialize(np.random.default_rng(42).random((ny, nx)))
    return solver.run(10)


def _storm_handler(seed: int, size: int, sweeps: int) -> float:
    """Real CPU work built from ``seed`` alone: nothing big rides the parcel."""
    a = np.full(size, float(seed % 7 + 1))
    for _ in range(sweeps):
        a = np.sqrt(a * 1.0001 + float(seed % 13))
    return float(a.sum())


def _storm(rt):
    futures = [
        rt.async_at(i % rt.n_localities, _storm_handler, i, 4096, 4)
        for i in range(24)
    ]
    return sum(f.get() for f in futures)


@pytest.mark.parametrize("processes", [1, 2, 4])
@pytest.mark.parametrize("job", [_heat1d, _jacobi2d, _storm])
def test_bit_identical_across_backends_and_process_counts(job, processes):
    virtual, _ = _run(None, 2, job)
    multiprocess, counters = _run(_MP, processes, job)
    assert np.array_equal(virtual, multiprocess)
    if processes > 1:
        # A silent fallback to loopback delivery would zero these.
        assert counters["parcels_forwarded"] > 0, counters
        assert counters["remote_tasks_executed"] > 0, counters


def test_heat1d_multiprocess_matches_reference():
    params = Heat1DParams()
    expected = heat1d_reference(analytic_heat_profile(64), 12, params)
    result, _ = _run(_MP, 2, _heat1d)
    assert np.array_equal(result, expected)


def test_heat1d_incremental_runs_bit_identical():
    """run() twice (chain extension) matches one longer run, across
    process boundaries (the absolute-target chain_result protocol)."""
    params = Heat1DParams()
    with Runtime(n_localities=2, workers_per_locality=1, config=_MP) as rt:
        solver = DistributedHeat1D(rt, 32, params, partitions_per_locality=1)
        solver.initialize(analytic_heat_profile(32))
        solver.run(5)
        split = solver.run(5)
    expected = heat1d_reference(analytic_heat_profile(32), 10, params)
    assert np.array_equal(split, expected)
