"""ParalleX sanitizer suite: race detector, deadlock detector, lint.

Three cooperating tools that check the model's central contract --
futures, LCOs and parcels are the only legal ordering edges between
HPX-threads:

* :class:`~repro.analysis.race.RaceDetector` -- dynamic vector-clock
  happens-before race detection over instrumented component state;
* :class:`~repro.analysis.deadlock.DeadlockDetector` -- wait-for-graph
  deadlock detection, including silent-quiescence hangs;
* :mod:`repro.analysis.lint` -- AST-based static rules
  (``python -m repro.analysis.lint src``).

Typical dynamic use::

    from repro import analysis

    with analysis.attach() as sanitizers:
        rt = Runtime(...)
        rt.run(main)          # raises DataRaceError / DeadlockError
    print(sanitizers.race.findings())

See ``docs/analysis.md`` for the happens-before model and the lint
rule catalogue.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from ..runtime import instrument
from .deadlock import DeadlockDetector, WaitGraph

# The schedule-space explorer is exposed as the submodule (its entry
# point is ``explore.explore(...)``); the classes clients subclass or
# construct are re-exported flat.
from . import explore  # noqa: F401 - re-export
from .explore import (
    ExploreApp,
    ExploreReport,
    ScheduleController,
    register_app,
    replay_file,
)
from .race import AccessRecord, RaceDetector
from .vector_clock import Epoch, VectorClock

__all__ = [
    "AccessRecord",
    "DeadlockDetector",
    "Epoch",
    "ExploreApp",
    "ExploreReport",
    "RaceDetector",
    "Sanitizers",
    "ScheduleController",
    "VectorClock",
    "WaitGraph",
    "attach",
    "explore",
    "register_app",
    "replay_file",
    "wait_graph",
    "wait_graph_dot",
]


class Sanitizers:
    """The detectors installed by one :func:`attach` context."""

    def __init__(
        self, race: RaceDetector | None, deadlock: DeadlockDetector | None
    ) -> None:
        self.race = race
        self.deadlock = deadlock


@contextmanager
def attach(
    races: bool = True, deadlocks: bool = True, report: str = "raise"
) -> Iterator[Sanitizers]:
    """Install the dynamic sanitizers for the duration of a ``with`` block.

    ``report`` controls the race detector ("raise" stops at the first
    race, "collect" accumulates into ``sanitizers.race.findings()``).
    Findings are also ``event``s of kind ``"race"`` / ``"deadlock"`` on
    the seam, so a tracer attached at the same time records them.
    """
    race = RaceDetector(report=report) if races else None
    deadlock = DeadlockDetector() if deadlocks else None
    for probe in (race, deadlock):
        if probe is not None:
            instrument.install(probe)
    try:
        yield Sanitizers(race, deadlock)
    finally:
        for probe in (race, deadlock):
            if probe is not None:
                instrument.uninstall(probe)


def wait_graph() -> WaitGraph:
    """The live wait-for graph of the installed deadlock detector.

    Returns an empty :class:`WaitGraph` when no detector is attached.
    """
    for probe in instrument.active_probes():
        if isinstance(probe, DeadlockDetector):
            return probe.wait_graph()
    return WaitGraph()


def wait_graph_dot() -> str:
    """The live wait-for graph rendered as Graphviz DOT."""
    return wait_graph().to_dot()
