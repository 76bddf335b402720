"""Tests for Locality identity and the pool/runtime wiring."""

import pytest

from repro.errors import RuntimeStateError
from repro.runtime import Runtime
from repro.runtime.locality import Locality
from repro.runtime.threads.pool import ThreadPool


def test_locality_installs_pool_backrefs():
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        loc = rt.localities[1]
        assert loc.pool.locality is loc
        assert loc.pool.runtime is rt
        assert loc.n_workers == 1


def test_locality_equality_is_per_runtime():
    with Runtime(n_localities=1, workers_per_locality=1) as rt_a:
        a0 = rt_a.localities[0]
        assert a0 == a0
        assert hash(a0) == hash(rt_a.localities[0])
    with Runtime(n_localities=1, workers_per_locality=1) as rt_b:
        # Same id, different runtime: not equal.
        assert rt_b.localities[0] != a0


def test_negative_locality_id_rejected():
    pool = ThreadPool(1)

    class FakeRuntime:
        pass

    with pytest.raises(RuntimeStateError):
        Locality(-1, pool, FakeRuntime())


def test_machine_pinning_maps_workers_to_cores():
    with Runtime(machine="xeon-e5-2660v3", workers_per_locality=4) as rt:
        pool = rt.localities[0].pool
        # Compact pinning on 2-way SMT: physical PUs 0, 2, 4, 6.
        assert [w.core_id for w in pool.workers] == [0, 2, 4, 6]


def test_scheduler_choice_reaches_pools():
    from repro.config import Config

    cfg = Config(threads__scheduler="static")
    with Runtime(workers_per_locality=2, config=cfg) as rt:
        assert rt.localities[0].pool.scheduler.name == "static"
