"""Stream identity: what an attached observer sees is pinned, bit for bit.

Each scenario is a fixed, seeded virtual-clock run that exercises one
group of emission sites (task records, steals, parcel send / recv /
retry / drop, outages, overload decisions, a corrupt checkpoint epoch,
the counter sampler).  The digests below were recorded with the
monkey-patching ``Tracer`` and sampler at the commit before the
observers moved onto the ``instrument`` seam; whatever observes the
runtime today must reproduce them: same records, same events, same
order, same stamps, same Chrome-trace JSON, same sampled series.
Scenarios a, b and f run on a modelled network, where a parcel's size
sets its transfer time and the sampler reads the byte counter: their
digests were re-recorded once, when the parcel body dropped its
``(kind, method, gid)`` head for ``(action, args, kwargs)``, from the
previous tree with only each parcel's size changed to the new body's.
They were re-recorded once more when a component action on its
caller's own locality stopped being a parcel.  For a and f the old and
new runs agree once parcel events and parcel columns are dropped and
handler labels (``parcel#<id>``, ``action:<name>``) are normalised:
same tasks, ids, stamps, steals and thread counters.  For b the fault
sequence itself changed, since local posts draw no fate and cannot be
dropped.

Task and parcel ids come from process-global counters, so every
scenario restarts both at 1 (ids also appear inside task descriptions
and the exported JSON, which is why the dump is not rebased instead).
"""

import dataclasses
import hashlib
import itertools
import json
import warnings

import pytest

from repro.config import Config
from repro.errors import ParcelDeadLetterError, ParcelShedError
from repro.observability import sample_counters
from repro.observability.tracer import Tracer
from repro.resilience import CheckpointStore, FaultInjector
from repro.runtime import Runtime
from repro.runtime import context as ctx
from repro.runtime.parcel import parcel as parcel_module
from repro.runtime.threads import hpx_thread
from repro.runtime.threads.hpx_thread import ThreadPriority
from repro.stencil import DistributedHeat1D, Heat1DParams, analytic_heat_profile

MACHINE = "xeon-e5-2660v3"

#: SHA-256 of the canonical dump of ``(records, events)``, of
#: ``export_chrome_trace()``, and of the sampled series, per scenario.
DIGESTS = {
    "a.stream": "fd658c95d82b6a20f8341d11aa37cfa95dbf470ec370c497c787d981d1e67e5c",
    "a.chrome": "23a26e770153db9bbb3053e1998daca08c78ae960bf15169f61df9d5a3577563",
    "b.stream": "7b2226959c0391ea8e412c097cf9939579e742d7e2ced2ecc7bf454ed907cae7",
    "b.chrome": "854c3f9f4b7313054131aaa15c16c3635d286a69b9863046d928b3cd22b01546",
    "c.stream": "3128be440b5c6e29b41ad7c615da9ec0a71f8794c0b4164b682765eea5b12224",
    "c.chrome": "74d218ee52dd779ea1310529280a91ac74e7e08b2c06c7977d85d4781c634575",
    "e.stream": "d35b541b170aa48682029402bbb4b063c1f1e6c93faff9f7b3e3a12ade6c559d",
    "e.chrome": "ac9fc667d4216eabeb1101652e07bd8a20b155a44c273aab78dfde4b9ca47594",
    "f.series": "726aee031a09303b442ecf2575e9b138c45709eb3230102f03b3b8a33438c52b",
}


@pytest.fixture(autouse=True)
def _ids_from_one(monkeypatch):
    monkeypatch.setattr(hpx_thread, "_ids", itertools.count(1))
    monkeypatch.setattr(parcel_module, "_ids", itertools.count(1))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _stream_digest(tracer: Tracer) -> str:
    records = [dataclasses.astuple(r) for r in tracer.records]
    events = [
        (e.kind, e.time, e.pool, e.worker_id, e.parcel_id, sorted(e.args.items()))
        for e in tracer.events
    ]
    return _sha(json.dumps([records, events]))


def _check(scenario: str, tracer: Tracer) -> None:
    assert _stream_digest(tracer) == DIGESTS[scenario + ".stream"]
    assert _sha(tracer.export_chrome_trace()) == DIGESTS[scenario + ".chrome"]


def _kinds(tracer: Tracer) -> set[str]:
    return {e.kind for e in tracer.events}


def _heat1d(rt: Runtime, nx: int = 96, partitions_per_locality: int = 3):
    solver = DistributedHeat1D(
        rt,
        nx,
        Heat1DParams(),
        partitions_per_locality=partitions_per_locality,
        cost_per_step=1e-4,
    )
    solver.initialize(analytic_heat_profile(nx))
    return solver


def _traced_heat1d(steps: int = 6, **runtime_kwargs) -> Tracer:
    tracer = Tracer()
    with Runtime(
        machine=MACHINE, n_localities=4, workers_per_locality=2, **runtime_kwargs
    ) as rt:
        solver = _heat1d(rt)
        with tracer.attach(rt):
            rt.run(lambda: solver.run(steps))
    return tracer


def test_a_heat1d_work_stealing():
    tracer = _traced_heat1d(config=Config(threads__scheduler="work-stealing"))
    assert {"steal", "parcel_send", "parcel_recv"} <= _kinds(tracer)
    _check("a", tracer)


def test_b_heat1d_under_faults_and_an_outage():
    injector = FaultInjector(
        seed=11, drop_rate=0.08, corrupt_rate=0.05, duplicate_rate=0.05
    ).fail_locality(2, at=2e-4, until=3e-4)
    tracer = _traced_heat1d(fault_injector=injector)
    assert {"parcel_retry", "parcel_drop", "outage"} <= _kinds(tracer)
    reasons = {e.args["reason"] for e in tracer.events_of("parcel_drop")}
    assert any("dropped" in r for r in reasons)
    assert any("corrupted" in r for r in reasons)
    assert any("down at" in r for r in reasons)
    _check("b", tracer)


def _sink(cost: float) -> None:
    ctx.add_cost(cost)


def _unit() -> int:
    return 1


def test_c_overload_storm():
    """The LOW-priority storm of ``tests/resilience/test_res_overload.py``
    (defer, shed, credit stall / resume), then bursts at a peer through two
    outage windows that outlast the retries: the first after a long
    silence (phi confirms it dead), the second right after acks (three
    dead letters open the breaker); both end in a probe and a close."""
    tracer = Tracer()
    injector = (
        FaultInjector(seed=5)
        .fail_locality(1, at=1.0, until=1.0008)
        .fail_locality(1, at=1.006, until=1.0068)
    )
    with Runtime(
        n_localities=2,
        workers_per_locality=2,
        fault_injector=injector,
        config=Config(
            overload__enabled=True,
            overload__credits=1,
            overload__defer_max=1,
            overload__defer_base_s=1e-6,
            parcel__retry_max_attempts=3,
        ),
    ) as rt:
        pool0 = rt.localities[0].pool

        def storm() -> int:
            for _ in range(6):
                rt.apply_at(1, _sink, 1e-2, priority=ThreadPriority.LOW)
            done = sum(f.get() for f in [rt.async_at(1, _unit) for _ in range(4)])
            for _ in range(3):  # acks at distinct times: phi's inter-arrival samples
                rt.async_at(1, _sink, 1e-3).get()
            return done

        def bursts_at_a_dead_peer() -> int:
            done = 0
            for _ in range(14):
                for future in [rt.async_at(1, _unit) for _ in range(3)]:
                    try:
                        done += future.get()
                    except (ParcelDeadLetterError, ParcelShedError):
                        pass
                ctx.add_cost(4e-4)
            return done

        def main() -> tuple[int, int]:
            first = storm()
            late = pool0.submit(bursts_at_a_dead_peer, ready_time=1.0)
            return first, late.get()

        with tracer.attach(rt):
            assert rt.run(main)[0] == 4
    assert {
        "parcel_deferred",
        "parcel_shed",
        "credit_stall",
        "credit_resume",
        "phi_confirm",
        "breaker_open",
        "breaker_probe",
        "breaker_close",
    } <= _kinds(tracer)
    _check("c", tracer)


class _Box:
    def __init__(self, value: int) -> None:
        self.value = value

    def checkpoint_state(self) -> int:
        return self.value

    def restore_state(self, state: int) -> None:
        self.value = state


def test_e_corrupt_epoch_restore():
    tracer = Tracer()
    with Runtime(n_localities=1, workers_per_locality=1) as rt:
        store = CheckpointStore(runtime=rt, keep=2)
        box = _Box(0)

        def job() -> None:
            store.save(0, [box])
            ctx.add_cost(1e-3)
            store.save(1, [box])
            bad = store.checkpoint(1)
            store._epochs[1] = dataclasses.replace(bad, payload=b"garbage")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                store.restore_latest_valid([box])

        with tracer.attach(rt):
            rt.run(job)
    assert "checkpoint_corrupt_skipped" in _kinds(tracer)
    _check("e", tracer)


SAMPLED_PATHS = [
    "/threads{total}/count/cumulative",
    "/threads{total}/count/stolen",
    "/threads{total}/time/busy",
    "/threads{total}/idle-rate",
    "/parcels{total}/count/sent",
    "/parcels{total}/data/sent",
]


def test_f_sampled_counter_series():
    with Runtime(machine=MACHINE, n_localities=4, workers_per_locality=2) as rt:
        solver = _heat1d(rt)
        series = sample_counters(
            rt, lambda: solver.run(6), paths=SAMPLED_PATHS, interval=5e-5
        )
    assert len(series) > 10
    assert _sha(json.dumps([series.times, series.rows])) == DIGESTS["f.series"]
