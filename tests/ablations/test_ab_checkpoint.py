"""Ablation: checkpoint overhead vs epoch length ``K``.

The checkpoint/restart claim quantified: coordinated epoch snapshots
cost virtual time through the cost model (``checkpoint.cost_*``), and
that cost trades against recovery time.  Two sweeps over the epoch
length ``K`` on the distributed heat solver:

* **crash-free**: the full overhead of taking epochs nobody needs --
  makespan grows as ``K`` shrinks (more saves);
* **crashed**: a permanent mid-run locality crash forces a restore --
  recovery re-runs the steps since the last epoch on top of the saves
  (short epochs lose less recomputation, but at this save cost the
  saves dominate).

Correctness is constant throughout: every run -- crashed or not, any
``K`` -- stays bit-identical to the fault-free reference.  The sweep
uses an exaggerated ``checkpoint.cost_base_s`` so the overhead is
visible at this (test-sized) problem scale.
"""

import numpy as np

from repro.config import Config
from repro.reporting import Series, format_figure
from repro.resilience import FaultInjector
from repro.runtime import perfcounters
from repro.runtime.runtime import Runtime
from repro.stencil.heat1d import DistributedHeat1D, Heat1DParams, heat1d_reference

NX, STEPS, SEED = 64, 50, 42
INTERVALS = (2, 5, 10, 25)
CRASH_LOCALITY, CRASH_AT = 2, 0.005
#: Exaggerated save cost so the overhead curve is visible at NX=64.
COST = Config(checkpoint__cost_base_s=2e-3, checkpoint__cost_per_byte_s=0.0)
U0 = np.sin(np.linspace(0.0, 2.0 * np.pi, NX, endpoint=False))

_COUNTER_PATHS = (
    "/checkpoints{total}/count/saved",
    "/checkpoints{total}/time/save",
)


def _run(
    every: int, crash: bool, config: Config = COST
) -> tuple[float, np.ndarray, dict[str, float]]:
    injector = None
    if crash:
        injector = FaultInjector(seed=SEED)
        injector.fail_locality(CRASH_LOCALITY, at=CRASH_AT, permanent=True)
    with Runtime(
        machine="xeon-e5-2660v3",
        n_localities=4,
        workers_per_locality=2,
        fault_injector=injector,
        config=config,
    ) as rt:
        solver = DistributedHeat1D(rt, NX, Heat1DParams(), cost_per_step=1e-3)
        solver.initialize(U0)
        solution = solver.run_resilient(STEPS, checkpoint_every=every)
        counters = {path: perfcounters.query(rt, path) for path in _COUNTER_PATHS}
        return rt.makespan, solution, counters


def checkpoint_sweep() -> dict[str, list[float]]:
    reference = heat1d_reference(U0, STEPS, Heat1DParams())
    times: dict[str, list[float]] = {"crash-free": [], "crashed": []}
    for every in INTERVALS:
        for mode, crash in (("crash-free", False), ("crashed", True)):
            makespan, solution, _ = _run(every, crash)
            assert np.array_equal(solution, reference)  # never costs bits
            times[mode].append(makespan)
    return times


def test_checkpoint_overhead_vs_interval():
    data = checkpoint_sweep()
    crash_free = Series("crash-free", list(zip(INTERVALS, data["crash-free"])))
    crashed = Series("crashed + restart", list(zip(INTERVALS, data["crashed"])))
    text = format_figure(
        "Ablation: heat1d time-to-solution vs checkpoint interval K, Xeon x4 "
        "(virtual seconds; one permanent crash in the 'crashed' runs; "
        "solutions bit-identical throughout)",
        [crash_free, crashed],
        xlabel="epoch length K (steps)",
        y_format="{:.3e}",
    )
    print(text)
    # Crash-free: fewer epochs, less overhead -- monotone in K.
    assert data["crash-free"] == sorted(data["crash-free"], reverse=True)
    # A crash is never free: recovery re-runs steps on top of the saves.
    assert all(c > f for c, f in zip(data["crashed"], data["crash-free"]))


def test_crash_free_epochs_charge_the_clock():
    """The overhead is real virtual time: K=2 pays more saves than K=25."""
    fast, _, few = _run(25, crash=False)
    slow, _, many = _run(2, crash=False)
    assert many["/checkpoints{total}/count/saved"] > few[
        "/checkpoints{total}/count/saved"
    ]
    assert slow > fast
    assert many["/checkpoints{total}/time/save"] > few[
        "/checkpoints{total}/time/save"
    ]


def test_save_cost_reaches_the_makespan():
    """The driver takes its epochs outside any HPX-thread; the save cost
    must still land on the virtual clock, not only in the counter."""
    free = Config(checkpoint__cost_base_s=0.0, checkpoint__cost_per_byte_s=0.0)
    for every in INTERVALS:
        paid, _, counters = _run(every, crash=False)
        unpaid, _, _ = _run(every, crash=False, config=free)
        assert counters["/checkpoints{total}/time/save"] > 0
        assert paid > unpaid
