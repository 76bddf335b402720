"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.hardware.registry import machine_names, machine
from repro.runtime import instrument
from repro.runtime.runtime import Runtime


@pytest.fixture
def rt():
    """A small single-locality runtime (4 workers), started and stopped."""
    runtime = Runtime(n_localities=1, workers_per_locality=4)
    runtime.start()
    yield runtime
    runtime.stop()


@pytest.fixture(params=machine_names())
def any_machine(request):
    """Parametrized over all four calibrated machine models."""
    return machine(request.param)


class EventRecorder(instrument.Probe):
    """Keeps every ``Probe.event`` call as ``(kind, time, args)``."""

    def __init__(self) -> None:
        self.events: list[tuple[str, float, dict]] = []

    def event(self, kind, time, pool="", worker_id=None, parcel_id=None, args=None):
        self.events.append((kind, time, args or {}))

    def kinds(self) -> list[str]:
        return [kind for kind, _, _ in self.events]


@pytest.fixture
def seam_events():
    """An :class:`EventRecorder` installed on the seam for the test."""
    recorder = EventRecorder()
    instrument.install(recorder)
    yield recorder
    instrument.uninstall(recorder)
