"""Parcel-path microbenchmark: cross-locality action storms.

Every invocation pays the full parcel path -- encode, route, handler
spawn, decode, reply -- over the loopback port: once on the default
path (``parcel.zero_copy`` on, the loopback decode skipped) and once
with the real decode the multiprocess backend takes at a process
boundary.  Both variants assert the same virtual makespan fingerprint,
so a fast path that moved the model's answer fails here.
"""

from repro.config import Config
from repro.runtime import Runtime, when_all

N = 300
PAYLOAD = list(range(64))


def _storm_handler(payload, i):
    return len(payload) + i


def _storm(config=None):
    with Runtime(n_localities=2, workers_per_locality=2, config=config) as rt:

        def main():
            futures = [
                rt.async_at(1, _storm_handler, PAYLOAD, i) for i in range(N)
            ]
            return sum(f.get() for f in when_all(futures).get())

        total = rt.run(main)
        return total, rt.makespan, rt.parcelport.parcels_sent


EXPECTED = sum(len(PAYLOAD) + i for i in range(N))


def test_parcel_storm_default_path(benchmark):
    total, makespan, parcels = benchmark(_storm)
    assert total == EXPECTED
    assert parcels >= N  # request parcels at minimum


def test_parcel_storm_zero_copy(benchmark):
    """Zero-copy off against the default on: same answers, every
    argument really decoded."""
    _, makespan_default, parcels_default = _storm()
    config = Config(parcel__zero_copy=False)
    total, makespan, parcels = benchmark(_storm, config)
    assert total == EXPECTED
    assert makespan == makespan_default
    assert parcels == parcels_default
