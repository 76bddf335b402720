"""Parcel coalescing: batching changes wall time, never answers.

The per-destination :class:`~repro.runtime.parcel.batcher.ParcelBatcher`
packs small same-destination parcels into one wire message.  Its
admissibility contract mirrors the zero-copy fast path's: with the
default ``batch_linger_s = 0`` every virtual-time observable -- the
makespan, the stencil fields, the parcel *and byte* counters -- must be
bit-identical with batching on or off, under every scheduler.  These
tests pin that, plus the batcher's own bookkeeping (flush reasons,
header amortization, the drained-at-quiescence gauge), the perfcounter
surface, and the trace events.
"""

import numpy as np
import pytest

from repro.config import Config
from repro.errors import ConfigError
from repro.runtime import perfcounters
from repro.runtime.runtime import Runtime
from repro.observability.tracer import Tracer
from repro.stencil.heat1d import DistributedHeat1D, Heat1DParams, heat1d_reference

SCHEDULERS = ["fifo", "static", "work-stealing"]

NX = 48
U0 = np.cos(np.linspace(0.0, 2.0 * np.pi, NX, endpoint=False))


def _config(scheduler: str, batching: bool, **extra) -> Config:
    return Config(
        threads__scheduler=scheduler,
        parcel__batching=batching,
        **extra,
    )


def _fingerprint(rt: Runtime) -> dict:
    port = rt.parcelport
    return {
        "makespan": rt.makespan,
        "parcels_sent": port.parcels_sent,
        "bytes_sent": port.bytes_sent,
        "parcels_delivered": port.parcels_delivered,
        "threads": perfcounters.query(rt, "/threads{total}/count/cumulative"),
    }


def _heat_run(scheduler: str, batching: bool, **extra):
    with Runtime(
        n_localities=2,
        workers_per_locality=2,
        config=_config(scheduler, batching, **extra),
    ) as rt:
        solver = DistributedHeat1D(
            rt, NX, Heat1DParams(), partitions_per_locality=2, cost_per_step=1e-4
        )
        solver.initialize(U0)
        field = rt.run(lambda: solver.run(20))
        return field, _fingerprint(rt)


def _echo_len(payload, i):
    return len(payload) + i


def _storm_run(scheduler: str, batching: bool):
    """300 same-destination parcels in flight at once: the batcher's best case."""
    n = 300
    payload = list(range(64))
    with Runtime(
        n_localities=2,
        workers_per_locality=2,
        config=_config(scheduler, batching),
    ) as rt:

        def main() -> int:
            futures = [rt.async_at(1, _echo_len, payload, i) for i in range(n)]
            return sum(f.get() for f in futures)

        total = rt.run(main)
        assert total == sum(len(payload) + i for i in range(n))
        return total, _fingerprint(rt)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("run", [_heat_run, _storm_run], ids=["heat1d", "storm"])
def test_batching_bit_identical(run, scheduler):
    out_off, fp_off = run(scheduler, batching=False)
    out_on, fp_on = run(scheduler, batching=True)
    assert fp_on == fp_off
    np.testing.assert_array_equal(out_on, out_off)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_batched_heat1d_matches_reference(scheduler):
    field, _ = _heat_run(scheduler, batching=True)
    np.testing.assert_array_equal(field, heat1d_reference(U0, 20, Heat1DParams()))


@pytest.mark.parametrize("batch_max", [2, 4, 64])
def test_batch_size_knob_never_moves_the_answer(batch_max):
    field_off, fp_off = _heat_run("work-stealing", batching=False)
    field_on, fp_on = _heat_run(
        "work-stealing", batching=True, parcel__batch_max_parcels=batch_max
    )
    assert fp_on == fp_off
    np.testing.assert_array_equal(field_on, field_off)


def _remote_unit():
    return 1


def test_batcher_stats_reconcile_and_drain():
    with Runtime(
        n_localities=2,
        workers_per_locality=1,
        config=_config("work-stealing", batching=True),
    ) as rt:

        def main():
            futures = [rt.async_at(1, _remote_unit) for _ in range(40)]
            return sum(f.get() for f in futures)

        assert rt.run(main) == 40
        batcher = rt._batcher
        assert batcher is not None
        # Coalescing actually happened, and the header amortization is
        # exactly 64 bytes per parcel that avoided its own message.
        assert batcher.parcels_batched > 0
        assert 0 < batcher.messages_flushed <= batcher.parcels_batched
        assert batcher.header_bytes_saved == 64 * (
            batcher.parcels_batched - batcher.messages_flushed
        )
        flushes = (
            batcher.flushes_full
            + batcher.flushes_bytes
            + batcher.flushes_linger
            + batcher.flushes_forced
        )
        assert flushes == batcher.messages_flushed
        # Quiescence drained everything: nothing parked in a batch.
        assert batcher.pending == 0


def test_self_sends_bypass_batching():
    with Runtime(
        n_localities=1,
        workers_per_locality=2,
        config=_config("work-stealing", batching=True),
    ) as rt:

        def main():
            futures = [rt.async_at(0, _remote_unit) for _ in range(10)]
            return sum(f.get() for f in futures)

        assert rt.run(main) == 10
        batcher = rt._batcher
        assert batcher is not None
        # Loopback traffic never waits in a batch.
        assert batcher.parcels_batched == 0
        assert batcher.messages_flushed == 0
        assert rt.parcelport.parcels_delivered > 0


def test_batch_perfcounters_discover_and_query():
    with Runtime(
        n_localities=2,
        workers_per_locality=1,
        config=_config("work-stealing", batching=True),
    ) as rt:

        def main():
            futures = [rt.async_at(1, _remote_unit) for _ in range(20)]
            return sum(f.get() for f in futures)

        rt.run(main)
        batcher = rt._batcher
        paths = perfcounters.discover(rt)
        assert "/parcels{total}/batch/messages" in paths
        assert "/parcels{total}/batch/parcels" in paths
        assert "/parcels{total}/batch/header-bytes-saved" in paths
        assert perfcounters.query(rt, "/parcels{total}/batch/messages") == float(
            batcher.messages_flushed
        )
        assert perfcounters.query(rt, "/parcels{total}/batch/parcels") == float(
            batcher.parcels_batched
        )
        assert perfcounters.query(rt, "/parcels{total}/batch/pending") == 0.0


def test_batch_perfcounters_read_zero_when_disabled():
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        rt.run(lambda: rt.async_at(1, _remote_unit).get())
        assert rt._batcher is None
        assert perfcounters.query(rt, "/parcels{total}/batch/messages") == 0.0
        assert "/parcels{total}/batch/messages" not in perfcounters.discover(rt)


def test_tracer_records_batch_flush_events():
    with Runtime(
        n_localities=2,
        workers_per_locality=1,
        config=_config("work-stealing", batching=True),
    ) as rt:
        tracer = Tracer()
        with tracer.attach(rt):

            def main():
                futures = [rt.async_at(1, _remote_unit) for _ in range(30)]
                return sum(f.get() for f in futures)

            assert rt.run(main) == 30
        flushes = [e for e in tracer.events if e.kind == "parcel_batch_flush"]
        assert flushes
        for event in flushes:
            assert event.args["parcels"] >= 1
            assert event.args["reason"] in ("full", "bytes", "linger", "forced")
        assert sum(e.args["parcels"] for e in flushes) == rt._batcher.parcels_batched


def test_batching_config_validation():
    with pytest.raises(ConfigError):
        Config(parcel__batch_max_parcels=0)
    with pytest.raises(ConfigError):
        Config(parcel__batch_max_bytes=-1)
    with pytest.raises(ConfigError):
        Config(parcel__batch_linger_s=-1e-6)
