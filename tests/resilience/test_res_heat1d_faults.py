"""Acceptance tests: the distributed heat solver on a faulty substrate.

These are the ISSUE's acceptance criteria: a seeded 5% parcel-drop
schedule with retries converges bit-identically to the fault-free run;
the same schedule with retries disabled surfaces
:class:`ParcelDeadLetterError`; and two same-seed runs produce identical
virtual-time traces (makespan + counters + solution).

Every test that sets a nonzero fault rate also asserts, from the
parcelport's counters, that such a fault landed: a fault test whose
faults never land tests only the fault-free path.
"""

import numpy as np
import pytest

from repro.config import Config
from repro.errors import ParcelDeadLetterError
from repro.resilience import FaultInjector
from repro.runtime import perfcounters
from repro.runtime.runtime import Runtime
from repro.stencil.heat1d import DistributedHeat1D, Heat1DParams, heat1d_reference

NX, STEPS = 64, 25
U0 = np.sin(np.linspace(0.0, 2.0 * np.pi, NX, endpoint=False))
REFERENCE = heat1d_reference(U0, STEPS, Heat1DParams())


def _run(injector=None, config=None, resilient=False, steps=STEPS, n_localities=2):
    with Runtime(
        machine="xeon-e5-2660v3",
        n_localities=n_localities,
        workers_per_locality=2,
        fault_injector=injector,
        config=config,
    ) as rt:
        solver = DistributedHeat1D(rt, NX, Heat1DParams())
        solver.initialize(U0)
        solution = (
            solver.run_resilient(steps) if resilient else solver.run(steps)
        )
        port = rt.parcelport
        trace = {
            "makespan": rt.makespan,
            "sent": port.parcels_sent,
            "dropped": port.parcels_dropped,
            "retried": port.parcels_retried,
            "dead": port.parcels_dead_lettered,
            "duplicated": port.parcels_duplicated,
            "delayed": port.parcels_delayed,
        }
        counters = {
            path: perfcounters.query(rt, path)
            for path in perfcounters.discover(rt)
            if path.startswith(("/parcels", "/localities"))
        }
    return solution, trace, counters


def test_five_percent_drop_with_retry_is_bit_identical():
    clean, clean_trace, _ = _run()
    faulty, trace, _ = _run(FaultInjector(seed=42, drop_rate=0.05))
    assert np.array_equal(faulty, clean)
    assert np.array_equal(faulty, REFERENCE)
    assert trace["dropped"] > 0
    assert trace["retried"] == trace["dropped"]  # every loss was bridged
    assert trace["dead"] == 0
    # Retransmissions cost virtual time: the faulty run is strictly slower.
    assert trace["makespan"] > clean_trace["makespan"]


def test_same_schedule_with_retry_disabled_dead_letters():
    with pytest.raises(ParcelDeadLetterError, match="dropped in flight"):
        _run(
            FaultInjector(seed=42, drop_rate=0.05),
            config=Config(parcel__retry=False),
        )


def test_same_seed_runs_produce_identical_traces():
    sol_a, trace_a, counters_a = _run(
        FaultInjector(seed=7, drop_rate=0.05, duplicate_rate=0.03)
    )
    sol_b, trace_b, counters_b = _run(
        FaultInjector(seed=7, drop_rate=0.05, duplicate_rate=0.03)
    )
    assert np.array_equal(sol_a, sol_b)
    assert trace_a["dropped"] > 0 and trace_a["duplicated"] > 0
    assert trace_a == trace_b  # exact: makespan and every counter
    assert counters_a == counters_b


def test_different_seeds_produce_different_schedules():
    _, trace_a, _ = _run(FaultInjector(seed=1, drop_rate=0.08))
    _, trace_b, _ = _run(FaultInjector(seed=2, drop_rate=0.08))
    assert trace_a["dropped"] > 0 and trace_b["dropped"] > 0
    assert trace_a != trace_b


def test_locality_outage_recovery():
    injector = FaultInjector(seed=7).fail_locality(1, at=1e-5, until=3e-5)
    solution, trace, counters = _run(injector, resilient=True)
    assert np.array_equal(solution, REFERENCE)
    assert trace["dropped"] > 0  # parcels died against the downed node
    assert counters["/localities{total}/count/failed"] == 1.0


def test_recovery_survives_dead_letters():
    """Tiny retry budget + heavy loss: transparent retries are not enough,
    the application-level recovery rounds must bridge the gaps."""
    solution, trace, _ = _run(
        FaultInjector(seed=7, drop_rate=0.15),
        config=Config(parcel__retry_max_attempts=2),
        resilient=True,
    )
    assert np.array_equal(solution, REFERENCE)
    assert trace["dropped"] > 0
    assert trace["dead"] > 0  # recovery actually had work to do


def test_recovery_without_transparent_retry():
    solution, trace, _ = _run(
        FaultInjector(seed=3, drop_rate=0.08),
        config=Config(parcel__retry=False),
        resilient=True,
    )
    assert np.array_equal(solution, REFERENCE)
    assert trace["dropped"] > 0


def test_mixed_fault_kinds_four_localities():
    injector = FaultInjector(
        seed=5, drop_rate=0.06, duplicate_rate=0.04, delay_rate=0.05,
        delay_spike_s=5e-5,
    )
    solution, trace, _ = _run(injector, resilient=True, n_localities=4)
    assert np.array_equal(solution, REFERENCE)
    assert trace["dropped"] > 0
    assert trace["duplicated"] > 0 and trace["delayed"] > 0


def test_run_resilient_on_clean_runtime_matches_run():
    clean, _, _ = _run()
    resilient, _, _ = _run(resilient=True)
    assert np.array_equal(resilient, clean)


# Perfcounter surfacing (satellite) --------------------------------------------

def test_fault_counters_discoverable_and_queryable():
    _, trace, counters = _run(FaultInjector(seed=42, drop_rate=0.05))
    assert trace["dropped"] > 0
    assert counters["/parcels{total}/count/dropped"] == trace["dropped"]
    assert counters["/parcels{total}/count/retried"] == trace["retried"]
    assert counters["/parcels{total}/count/dead-lettered"] == 0.0
    assert counters["/localities{total}/count/failed"] == 0.0


def test_discover_lists_fault_counters():
    with Runtime(n_localities=1, workers_per_locality=1) as rt:
        paths = perfcounters.discover(rt)
    for suffix in ("dropped", "corrupted", "duplicated", "delayed", "retried",
                   "dead-lettered"):
        assert f"/parcels{{total}}/count/{suffix}" in paths
    assert "/localities{total}/count/failed" in paths
