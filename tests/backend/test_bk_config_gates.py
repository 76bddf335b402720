"""Multiprocess backend rejects virtual-clock-only features eagerly.

Outage windows, credit timing, and modelled interconnects are all
*virtual-time* constructs; combining them with real OS processes would
silently measure something else.  Every combo
must fail fast with a :class:`~repro.errors.ConfigError` at Runtime
construction (or at the resilient entry point), never mid-run.
"""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.errors import ConfigError
from repro.resilience import FaultInjector
from repro.runtime.runtime import Runtime


def _mp_config(**extra):
    return Config.from_mapping({"runtime.backend": "multiprocess", **extra})


def test_rejects_fault_injector():
    injector = FaultInjector(seed=0, drop_rate=0.5)
    with pytest.raises(ConfigError, match="fault injection"):
        Runtime(n_localities=2, config=_mp_config(), fault_injector=injector)


def test_rejects_overload_protection():
    config = _mp_config(**{"overload.enabled": True})
    with pytest.raises(ConfigError, match="overload"):
        Runtime(n_localities=2, config=config)


def test_rejects_machine_models():
    with pytest.raises(ConfigError, match="machine"):
        Runtime(n_localities=2, machine="xeon-e5-2660v3", config=_mp_config())


def test_rejects_process_count_mismatch():
    config = _mp_config(**{"runtime.processes": 3})
    with pytest.raises(ConfigError, match="processes"):
        Runtime(n_localities=2, config=config)


def test_accepts_explicit_matching_process_count():
    config = _mp_config(**{"runtime.processes": 2})
    with Runtime(n_localities=2, workers_per_locality=1, config=config) as rt:
        assert rt.distributed is True
        assert rt.backend.counters()["processes"] == 2.0


def test_run_resilient_rejected_on_multiprocess():
    from repro.stencil import DistributedHeat1D, Heat1DParams, analytic_heat_profile

    with Runtime(n_localities=2, workers_per_locality=1, config=_mp_config()) as rt:
        solver = DistributedHeat1D(rt, 16, Heat1DParams(), partitions_per_locality=1)
        solver.initialize(analytic_heat_profile(16))
        with pytest.raises(ConfigError, match="run_resilient"):
            solver.run_resilient(4)


def test_jacobi_run_resilient_rejected_on_multiprocess():
    import numpy as np

    from repro.stencil.jacobi2d_dist import DistributedJacobi2D

    with Runtime(n_localities=2, workers_per_locality=1, config=_mp_config()) as rt:
        solver = DistributedJacobi2D(rt, 6, 8)
        solver.initialize(np.zeros((6, 8)))
        with pytest.raises(ConfigError, match="run_resilient"):
            solver.run_resilient(4)


def test_schedule_exploration_rejected_off_the_virtual_clock():
    from repro.analysis.explore import ExploreApp, explore

    app = ExploreApp(
        name="test/mp",
        build=lambda rt: (lambda: None),
        config={"runtime.backend": "multiprocess"},
    )
    with pytest.raises(ConfigError, match="schedule exploration"):
        explore(app, strategy="random", budget=1)


@pytest.mark.parametrize(
    "argv",
    [["--drop-rate", "0.1"], ["--crash", "1@0.5"], ["--overload", "4"]],
    ids=["drop-rate", "crash", "overload"],
)
def test_cli_run_reports_the_refusal_as_a_configuration_error(argv, capsys):
    from repro.cli import main

    assert main(["run", "--backend", "multiprocess", *argv]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "requires the virtual-clock backend" in err


def test_every_listed_feature_is_refused_in_the_documented_words():
    """One list: the raised message and docs/architecture.md both carry
    each feature's name and reason verbatim."""
    import pathlib

    from repro.runtime.backend.base import VIRTUAL_CLOCK_ONLY, refuse_off_virtual_clock

    docs = pathlib.Path(__file__).parents[2] / "docs" / "architecture.md"
    text = " ".join(docs.read_text().split())
    for feature, reason in VIRTUAL_CLOCK_ONLY.items():
        with pytest.raises(ConfigError, match=feature) as raised:
            refuse_off_virtual_clock(feature)
        assert reason in str(raised.value)
        assert feature in text and reason in text


def test_virtual_backend_still_accepts_all_features():
    """The gates are backend-specific: virtual keeps the whole stack."""
    injector = FaultInjector(seed=0)
    config = Config(overload__enabled=True)
    with Runtime(
        n_localities=2,
        machine="xeon-e5-2660v3",
        config=config,
        fault_injector=injector,
    ) as rt:
        assert rt.distributed is False
