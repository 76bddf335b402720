"""Permanent-crash recovery: checkpoint restart with AGAS re-homing.

The acceptance criterion of the checkpoint issue: a seeded run of each
distributed stencil with a mid-run *permanent* locality crash completes
via decommission + evacuation + checkpoint restore, and the result is
bit-identical to a fault-free run.  Plus unit coverage for the recovery
primitives: ``FaultInjector`` permanence, ``AgasService.evacuate``,
``Runtime.decommission_locality``, bounded cross-locality fan-outs, and
a race-detector-clean pass over the whole recovery path.
"""

import numpy as np
import pytest

from repro import analysis
from repro.errors import (
    AgasError,
    ConfigError,
    FutureTimeoutError,
    MigrationError,
    RuntimeStateError,
)
from repro.resilience import FaultInjector
from repro.runtime import context as ctx
from repro.runtime import perfcounters, when_all
from repro.runtime.agas.service import AgasService
from repro.runtime.runtime import Runtime
from repro.stencil.heat1d import DistributedHeat1D, Heat1DParams
from repro.stencil.jacobi2d_dist import DistributedJacobi2D

NX, STEPS = 64, 30
U0 = np.sin(np.linspace(0.0, 2.0 * np.pi, NX, endpoint=False))


def _crash_injector(locality: int, at: float, seed: int = 42) -> FaultInjector:
    injector = FaultInjector(seed=seed)
    injector.fail_locality(locality, at=at, permanent=True)
    return injector


def _heat_run(injector=None, n_localities=4, **resilient_kwargs):
    with Runtime(
        machine="xeon-e5-2660v3",
        n_localities=n_localities,
        workers_per_locality=2,
        fault_injector=injector,
    ) as rt:
        solver = DistributedHeat1D(rt, NX, Heat1DParams(), cost_per_step=1e-3)
        solver.initialize(U0)
        if injector is None:
            solution = solver.run(STEPS)
        else:
            solution = solver.run_resilient(STEPS, **resilient_kwargs)
        stats = {
            "dropped": rt.parcelport.parcels_dropped,
            "saved": rt.checkpoints_saved,
            "restored": rt.checkpoints_restored,
            "decommissioned": sorted(rt.decommissioned),
            "counter_saved": perfcounters.query(
                rt, "/checkpoints{total}/count/saved"
            ),
            "counter_restored": perfcounters.query(
                rt, "/checkpoints{total}/count/restored"
            ),
            "counter_decommissioned": perfcounters.query(
                rt, "/localities{total}/count/decommissioned"
            ),
        }
    return solution, stats


# Stencil acceptance ---------------------------------------------------------


def test_heat1d_survives_permanent_crash_bit_identically():
    clean, _ = _heat_run()
    crashed, stats = _heat_run(_crash_injector(2, at=0.005), checkpoint_every=10)
    assert np.array_equal(crashed, clean)
    assert stats["decommissioned"] == [2]
    assert stats["restored"] == 1
    assert stats["saved"] >= 2
    assert stats["counter_saved"] == stats["saved"]
    assert stats["counter_restored"] == 1.0
    assert stats["counter_decommissioned"] == 1.0


def test_heat1d_crash_triggered_checkpoint_only():
    """interval=0: only the baseline epoch exists; recovery replays all."""
    clean, _ = _heat_run()
    crashed, stats = _heat_run(_crash_injector(1, at=0.004), checkpoint_every=0)
    assert np.array_equal(crashed, clean)
    assert stats["saved"] == 1
    assert stats["restored"] == 1
    assert stats["decommissioned"] == [1]


def test_heat1d_without_permanent_faults_takes_no_checkpoints():
    """Transient-only schedules must not pay any checkpoint overhead."""
    _, stats = _heat_run(FaultInjector(seed=7, drop_rate=0.05))
    assert stats["dropped"] > 0  # the transient faults did land
    assert stats["saved"] == 0
    assert stats["restored"] == 0
    assert stats["decommissioned"] == []


def test_jacobi2d_survives_permanent_crash_bit_identically():
    def run(injector=None, **kwargs):
        with Runtime(
            n_localities=3, workers_per_locality=2, fault_injector=injector
        ) as rt:
            solver = DistributedJacobi2D(rt, ny=14, nx=8, cost_per_step=1e-3)
            rng = np.random.default_rng(5)
            solver.initialize(rng.random((14, 8)))
            if injector is None:
                out = solver.run(STEPS)
            else:
                out = solver.run_resilient(STEPS, **kwargs)
            decommissioned = sorted(rt.decommissioned)
        return out, decommissioned

    clean, _ = run()
    crashed, decommissioned = run(_crash_injector(1, at=0.004), checkpoint_every=8)
    assert np.array_equal(crashed, clean)
    assert decommissioned == [1]


def test_permanent_crash_without_store_propagates():
    """A confirmed-dead locality is unrecoverable without checkpoints --
    but run() (no recovery driver) on that schedule must also not hang,
    and shutdown must report the continuations the crash orphaned."""
    from repro.errors import ParcelDeadLetterError, QuiescenceWarning

    with pytest.warns(QuiescenceWarning, match="quiesced with 105 demanded future"):
        with Runtime(
            n_localities=4,
            workers_per_locality=2,
            fault_injector=_crash_injector(1, at=0.004),
        ) as rt:
            solver = DistributedHeat1D(rt, NX, Heat1DParams(), cost_per_step=1e-3)
            solver.initialize(U0)
            with pytest.raises(ParcelDeadLetterError):
                solver.run(STEPS)


# FaultInjector permanence ---------------------------------------------------


def test_permanent_failure_rejects_finite_end_time():
    injector = FaultInjector()
    with pytest.raises(ConfigError):
        injector.fail_locality(1, at=0.5, until=2.0, permanent=True)


def test_permanently_down_and_has_permanent_failures():
    injector = FaultInjector()
    injector.fail_locality(1, at=1.0, until=2.0)  # transient
    assert not injector.has_permanent_failures
    assert not injector.permanently_down(1, 1.5)
    injector.fail_locality(2, at=3.0, permanent=True)
    assert injector.has_permanent_failures
    assert not injector.permanently_down(2, 2.9)
    assert injector.permanently_down(2, 3.0)
    assert injector.permanently_down(2, 1e9)
    assert not injector.permanently_down(1, 1e9)


# AGAS evacuation ------------------------------------------------------------


def _registered(service, home, n):
    return [service.register(object(), home) for _ in range(n)]


def test_evacuate_rehomes_round_robin_deterministically():
    service = AgasService(4)
    gids = _registered(service, 2, 5)
    moved = service.evacuate(2, [0, 1, 3])
    assert [gid for gid, _ in moved] == sorted(gids)
    assert [home for _, home in moved] == [0, 1, 3, 0, 1]
    assert service.gids_homed_at(2) == []
    for gid, home in moved:
        assert service.home_of(gid) == home


def test_evacuate_preserves_gids():
    service = AgasService(3)
    (gid,) = _registered(service, 1, 1)
    service.evacuate(1, [0, 2])
    assert gid in service


def test_evacuate_pinned_object_raises_migration_error():
    service = AgasService(2)
    (gid,) = _registered(service, 1, 1)
    service.pin(gid)
    with pytest.raises(MigrationError):
        service.evacuate(1, [0])
    service.unpin(gid)
    assert service.evacuate(1, [0]) == [(gid, 0)]


def test_evacuate_validates_survivors():
    service = AgasService(2)
    with pytest.raises(AgasError):
        service.evacuate(1, [])
    with pytest.raises(AgasError):
        service.evacuate(1, [1])  # cannot survive itself
    with pytest.raises(AgasError):
        service.evacuate(1, [7])  # out of range


def test_gids_homed_at_follows_in_flight_migration():
    service = AgasService(3)
    a, b = _registered(service, 0, 2)
    service.migrate(a, 1)
    assert service.gids_homed_at(0) == [b]
    assert service.gids_homed_at(1) == [a]
    # An evacuation after the migrate only moves what actually lives there.
    assert service.evacuate(1, [2]) == [(a, 2)]


# Decommissioning ------------------------------------------------------------


def test_decommission_locality_zero_is_refused():
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        with pytest.raises(RuntimeStateError):
            rt.decommission_locality(0)


def test_decommission_discards_queued_work_and_breaks_promises():
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        future = rt.locality(1).pool.submit(_identity)
        dropped = rt.decommission_locality(1)
        assert dropped == 1
        assert 1 in rt.decommissioned
        assert future.is_ready()
        with pytest.raises(Exception):
            future.get()  # broken promise, not a hang


def test_parcel_to_decommissioned_locality_is_dead_lettered():
    from repro.errors import ParcelDeadLetterError

    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        rt.decommission_locality(1)
        future = rt.async_at(1, _identity)
        with pytest.raises(ParcelDeadLetterError):
            future.get()
        assert 1 in rt.parcelport.suspected_dead


# Bounded fan-out -----------------------------------------------------------


def _identity() -> int:
    return 1


def _stuck() -> None:
    ctx.add_cost(50.0)


def test_fan_out_over_slow_locality_times_out():
    """A participant that does not answer in time bounds the wait via
    ``wait_for`` -- FutureTimeoutError, part of the TimeoutError subtree."""
    from repro import errors

    assert issubclass(FutureTimeoutError, errors.TimeoutError)
    with Runtime(n_localities=2, workers_per_locality=1) as rt:

        def job():
            joined = when_all([rt.async_at(i, _stuck) for i in range(rt.n_localities)])
            with pytest.raises(FutureTimeoutError):
                joined.wait_for(0.5)

        rt.run(job)


def test_fan_out_over_dead_locality_fails_fast_via_dead_letter():
    """A permanently dead destination surfaces the retry layer's
    dead-letter error well before a realistic deadline.  The joined
    future is ready (its parts failed); reading the parts raises."""
    from repro.errors import ParcelDeadLetterError

    injector = FaultInjector(seed=0)
    injector.fail_locality(1, at=0.0, permanent=True)
    with Runtime(
        n_localities=2, workers_per_locality=1, fault_injector=injector
    ) as rt:

        def job():
            joined = when_all([rt.async_at(i, _identity) for i in range(rt.n_localities)])
            joined.wait_for(10.0)
            with pytest.raises(ParcelDeadLetterError):
                [f.get() for f in joined.get()]

        rt.run(job)


# Race-detector clean pass ---------------------------------------------------


def test_recovery_path_is_race_clean():
    """The full crash-recovery cycle under the happens-before detector."""
    with analysis.attach(races=True, report="collect") as sanitizers:
        clean, _ = _heat_run()
        crashed, stats = _heat_run(
            _crash_injector(2, at=0.005), checkpoint_every=10
        )
    assert np.array_equal(crashed, clean)
    assert stats["restored"] == 1
    assert sanitizers.race is not None
    assert list(sanitizers.race.findings()) == []
