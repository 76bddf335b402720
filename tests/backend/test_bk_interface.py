"""ExecutionBackend seam: factory, defaults, config validation."""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.errors import ConfigError
from repro.runtime.backend import (
    ExecutionBackend,
    VirtualClockBackend,
    create_backend,
)
from repro.runtime.backend.multiprocess import MultiprocessBackend
from repro.runtime.runtime import Runtime


def test_default_backend_is_virtual():
    backend = create_backend(Config())
    assert isinstance(backend, VirtualClockBackend)
    assert backend.name == "virtual"
    assert backend.distributed is False
    assert backend.my_id == 0


def test_factory_builds_multiprocess_backend():
    backend = create_backend(Config(runtime__backend="multiprocess"))
    assert isinstance(backend, MultiprocessBackend)
    assert backend.name == "multiprocess"
    assert backend.distributed is True
    assert backend.my_id == 0


def test_virtual_backend_is_inert():
    """The virtual backend must never inject work into the hot loop."""
    backend = VirtualClockBackend()
    assert backend.maybe_service() is False
    assert backend.poll() is False
    assert backend.on_stall() is False
    assert backend.counters() == {}
    assert backend.worker_stats() == {}


def test_base_backend_cannot_forward():
    with pytest.raises(NotImplementedError):
        ExecutionBackend().forward_parcel(None, 1)


def test_runtime_exposes_backend_and_distributed_flag():
    with Runtime(n_localities=1) as rt:
        assert isinstance(rt.backend, VirtualClockBackend)
        assert rt.distributed is False


def test_config_rejects_unknown_backend():
    with pytest.raises(ConfigError):
        Config(runtime__backend="threads")


def test_config_rejects_bad_process_count():
    with pytest.raises(ConfigError):
        Config(runtime__processes=-1)


def test_virtual_runs_are_unaffected_by_backend_seam():
    """The backend hook in the hot loop must not change virtual results."""
    from repro.runtime import async_

    with Runtime(n_localities=2, workers_per_locality=2) as rt:
        result = rt.run(lambda: sum(async_(lambda i=i: i * i).get() for i in range(8)))
    assert result == sum(i * i for i in range(8))
