"""Parcel-path microbenchmark: a cross-locality action storm.

Every invocation pays the full loopback parcel path -- encode, route,
handler spawn, reply -- with the body carried by reference beside its
encoding (the loopback port's one way of travelling).
"""

from repro.runtime import Runtime, when_all

N = 300
PAYLOAD = list(range(64))


def _storm_handler(payload, i):
    return len(payload) + i


def _storm():
    with Runtime(n_localities=2, workers_per_locality=2) as rt:

        def main():
            futures = [
                rt.async_at(1, _storm_handler, PAYLOAD, i) for i in range(N)
            ]
            return sum(f.get() for f in when_all(futures).get())

        return rt.run(main), rt.parcelport.parcels_sent


def test_parcel_storm_default_path(benchmark):
    total, parcels = benchmark(_storm)
    assert total == sum(len(PAYLOAD) + i for i in range(N))
    assert parcels >= N  # request parcels at minimum
