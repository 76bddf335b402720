"""The backend reference: None on the virtual clock; config validation."""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.errors import ConfigError
from repro.runtime.backend.multiprocess import MultiprocessBackend
from repro.runtime.runtime import Runtime


def test_runtime_exposes_backend_and_distributed_flag():
    with Runtime(n_localities=1) as rt:
        assert rt.backend is None
        assert rt.distributed is False
    # Built, not started: no worker process exists yet.
    rt = Runtime(n_localities=2, config=Config(runtime__backend="multiprocess"))
    assert isinstance(rt.backend, MultiprocessBackend)
    assert rt.backend.my_id == 0 and rt.backend.runtime is rt
    assert rt.distributed is True


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
