"""Fast-path determinism: how a parcel body travels never moves an answer.

The port the runtime builds decides how a body reaches its handler: a
loopback port carries it by reference beside its encoding (the decode is
skipped), a modelled network -- like a process boundary -- decodes the
wire bytes.  The two must be indistinguishable to the application.  Per
scheduler, heat1d, jacobi2d and a parcel storm give on a loopback
runtime and on a ``machine=`` runtime:

* identical stencil field contents (checksums and exact arrays) or
  storm totals,
* identical parcel *and byte* counters (by-reference delivery must keep
  charging the honest serialized sizes).

It also pins the encode-once accounting at the port level: a
retransmitted parcel charges exactly the same byte count every attempt,
because the wire bytes travel *with* the parcel instead of being
re-encoded per transmission.
"""

import numpy as np
import pytest

from repro.config import Config
from repro.errors import SerializationError
from repro.runtime import perfcounters
from repro.runtime.parcel.parcel import Parcel
from repro.runtime.parcel.parcelport import LoopbackParcelport, NetworkParcelport
from repro.runtime.parcel.serialization import serialize
from repro.runtime.runtime import Runtime
from repro.stencil.heat1d import DistributedHeat1D, Heat1DParams
from repro.stencil.jacobi2d_dist import DistributedJacobi2D

SCHEDULERS = ["fifo", "static", "work-stealing"]

#: ``machine=`` of the decoded run; None is loopback (by reference).
PORTS = {None: LoopbackParcelport, "xeon-e5-2660v3": NetworkParcelport}

COUNTERS = (
    "/parcels{total}/count/sent",
    "/parcels{total}/data/sent",
)


def _runtime(scheduler: str, machine: str | None) -> Runtime:
    rt = Runtime(
        machine=machine,
        n_localities=2,
        workers_per_locality=2,
        config=Config(threads__scheduler=scheduler),
    )
    assert type(rt.parcelport) is PORTS[machine]
    return rt


def _fingerprint(rt: Runtime) -> dict:
    fp = {path: perfcounters.query(rt, path) for path in COUNTERS}
    fp["parcels_delivered"] = rt.parcelport.parcels_delivered
    return fp


def _heat_run(scheduler: str, machine: str | None):
    nx = 64
    u0 = np.cos(np.linspace(0.0, 2.0 * np.pi, nx, endpoint=False))
    with _runtime(scheduler, machine) as rt:
        solver = DistributedHeat1D(
            rt, nx, Heat1DParams(), partitions_per_locality=2, cost_per_step=1e-4
        )
        solver.initialize(u0)
        field = rt.run(lambda: solver.run(25))
        return field, _fingerprint(rt)


def _jacobi_run(scheduler: str, machine: str | None):
    ny, nx = 18, 16
    rng = np.random.default_rng(7)
    grid = rng.random((ny, nx))
    with _runtime(scheduler, machine) as rt:
        solver = DistributedJacobi2D(
            rt, ny, nx, partitions_per_locality=1, cost_per_step=1e-4
        )
        solver.initialize(grid)
        field = rt.run(lambda: solver.run(12))
        return field, _fingerprint(rt)


def _storm_run(scheduler: str, machine: str | None):
    n = 60
    payload = list(range(32))
    with _runtime(scheduler, machine) as rt:

        def main() -> int:
            futures = [rt.async_at(1, _echo_len, payload, i) for i in range(n)]
            return sum(f.get() for f in futures)

        total = rt.run(main)
        assert total == sum(len(payload) + i for i in range(n))
        return total, _fingerprint(rt)


def _echo_len(payload, i):
    return len(payload) + i


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_zero_copy_heat1d_bit_identical(scheduler):
    field_decoded, fp_decoded = _heat_run(scheduler, "xeon-e5-2660v3")
    field_by_ref, fp_by_ref = _heat_run(scheduler, None)
    assert fp_by_ref == fp_decoded
    assert float(np.sum(field_by_ref)) == float(np.sum(field_decoded))
    np.testing.assert_array_equal(field_by_ref, field_decoded)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_zero_copy_jacobi2d_bit_identical(scheduler):
    field_decoded, fp_decoded = _jacobi_run(scheduler, "xeon-e5-2660v3")
    field_by_ref, fp_by_ref = _jacobi_run(scheduler, None)
    assert fp_by_ref == fp_decoded
    assert float(np.sum(field_by_ref)) == float(np.sum(field_decoded))
    np.testing.assert_array_equal(field_by_ref, field_decoded)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_zero_copy_parcel_storm_bit_identical(scheduler):
    total_decoded, fp_decoded = _storm_run(scheduler, "xeon-e5-2660v3")
    total_by_ref, fp_by_ref = _storm_run(scheduler, None)
    assert total_by_ref == total_decoded
    assert fp_by_ref == fp_decoded


def test_zero_copy_still_validates_picklability():
    """The loopback port skips the *decode*, never the encode: an
    unpicklable argument must fail although it would travel by reference."""
    with Runtime(n_localities=2, workers_per_locality=2) as rt:
        unpicklable = open(__file__)  # noqa: SIM115 - deliberately unshippable
        try:
            with pytest.raises(SerializationError):
                rt.run(lambda: rt.async_at(1, _echo_len, unpicklable, 0).get())
        finally:
            unpicklable.close()


def test_retransmit_charges_encoded_size_every_attempt():
    """Encode-once accounting: every transmission of one parcel charges
    the same, honest byte count -- the wire bytes ride on the parcel."""
    port = LoopbackParcelport()
    delivered = []
    port.install_router(lambda parcel, arrival: delivered.append(parcel))
    body = (_echo_len, (list(range(50)), 3), {})
    data = serialize(body)
    parcel = Parcel(source_locality=0, payload=data, target_locality=1)
    assert parcel.size_bytes == len(data) + 64
    port.send(parcel)
    port.retransmit(parcel)
    port.retransmit(parcel)
    assert parcel.attempts == 3
    assert port.parcels_sent == 3
    assert port.bytes_sent == 3 * parcel.size_bytes == 3 * (len(data) + 64)
