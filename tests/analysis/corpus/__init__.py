"""Seeded-bug corpus for the schedule-space explorer.

Each module hides one concurrency bug that a *single-schedule* run --
even with the race and deadlock sanitizers attached -- does not trip,
because the default FIFO dispatch order happens to mask it.  The
schedule explorer (:mod:`repro.analysis.explore`) must find each bug
within its default budget:

* :mod:`.race_hidden` -- a write-write data race on component state,
  guarded by an unsynchronized flag that hides the second write on the
  default schedule;
* :mod:`.join_deadlock` -- a ``when_all``/Channel protocol that
  deadlocks only when two specific preemptions invert the cooperative
  help stack;
* :mod:`.conservation` -- a lost-update on a plain (un-instrumented)
  ledger that breaks the ``completed == submitted`` conservation law
  under a two-preemption interleaving;
* :mod:`.race_fixed` -- the repaired variant of ``race_hidden``;
* :mod:`.independent` -- three workers with disjoint state, the
  showcase for DPOR's pruning over exhaustive enumeration.

Every module exports ``make_app() -> ExploreApp``; importing the
package registers all four under ``corpus/<name>`` so the CLI can run
them by name (``repro analyze --explore --app corpus/race_hidden``).
"""

from __future__ import annotations

from repro.analysis.explore import ExploreApp, register_app

from . import conservation, independent, join_deadlock, race_fixed, race_hidden

__all__ = [
    "CORPUS",
    "conservation",
    "independent",
    "join_deadlock",
    "race_fixed",
    "race_hidden",
]

#: app name -> (app, expected violation kind; None for the clean variant)
CORPUS: dict[str, tuple[ExploreApp, str | None]] = {
    "corpus/race_hidden": (race_hidden.make_app(), "race"),
    "corpus/join_deadlock": (join_deadlock.make_app(), "deadlock"),
    "corpus/conservation": (conservation.make_app(), "invariant"),
    "corpus/race_fixed": (race_fixed.make_app(), None),
    "corpus/independent": (independent.make_app(), None),
}

for _app, _kind in CORPUS.values():
    register_app(_app)
