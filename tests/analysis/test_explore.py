"""Schedule-space explorer: corpus bugs, DPOR pruning, replay.

The seeded-bug corpus lives in ``tests/analysis/corpus``: each app's
bug is invisible to a single (default-schedule) run under the dynamic
sanitizers, and must be found by ``repro.analysis.explore`` within its
default budget.
"""

from __future__ import annotations

import pytest

from corpus import CORPUS
from repro import analysis
from repro.analysis.explore import (
    DEFAULT_BUDGET,
    DEMO_APPS,
    ExploreApp,
    PrefixStrategy,
    _run_schedule,
    _violation_of,
    explore,
    get_app,
    replay_file,
)
from repro.errors import ConfigError, ValidationError

BUGGY = [name for name, (_, kind) in CORPUS.items() if kind is not None]
CLEAN = [name for name, (_, kind) in CORPUS.items() if kind is None]


# ---------------------------------------------------------------------------
# Single-schedule sanitizers miss every corpus bug
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", BUGGY)
def test_default_schedule_hides_the_bug(name):
    """A plain run with both sanitizers attached reports nothing."""
    app, _ = CORPUS[name]
    outcome = _run_schedule(app, PrefixStrategy([]))
    assert outcome.status == "ok"
    assert outcome.races == []
    assert outcome.invariant_error is None
    assert _violation_of(outcome, outcome) is None


# ---------------------------------------------------------------------------
# The explorer finds every corpus bug within the default budget
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", BUGGY)
def test_explore_finds_corpus_bug(name):
    app, kind = CORPUS[name]
    report = explore(app)  # default strategy (dpor) and budget
    assert report.schedules_run <= DEFAULT_BUDGET
    assert report.violation is not None
    assert report.violation.kind == kind
    assert report.violation.choices, "minimized trace should keep a choice"


@pytest.mark.parametrize("name", BUGGY)
def test_preemption_bounding_finds_corpus_bug(name):
    """Every seeded bug is reachable within the default preemption bound."""
    app, kind = CORPUS[name]
    report = explore(app, strategy="pb", minimize=False)
    assert report.violation is not None
    assert report.violation.kind == kind


def test_random_walk_finds_hidden_race():
    app, kind = CORPUS["corpus/race_hidden"]
    report = explore(app, strategy="random", seed=0, minimize=False)
    assert report.violation is not None
    assert report.violation.kind == kind


def test_deadlock_violation_carries_wait_graph_dot():
    app, _ = CORPUS["corpus/join_deadlock"]
    report = explore(app, strategy="pb", minimize=False)
    dot = report.violation.graph_dot
    assert dot is not None and dot.startswith("digraph")
    assert "->" in dot  # at least one wait edge, cycle path highlighted


def test_minimization_shrinks_the_trace():
    app, kind = CORPUS["corpus/join_deadlock"]
    full = explore(app, minimize=False)
    small = explore(app, minimize=True)
    assert small.violation.kind == kind
    assert len(small.violation.choices) <= len(full.violation.choices)
    # The join inversion needs exactly two non-default choices.
    assert sum(1 for c in small.violation.choices if c) == 2


# ---------------------------------------------------------------------------
# Clean apps and demos stay clean; DPOR prunes the schedule space
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CLEAN)
def test_clean_corpus_apps_explore_clean(name):
    app, _ = CORPUS[name]
    report = explore(app)
    assert report.violation is None
    assert report.exhausted, "small clean apps should exhaust their space"


@pytest.mark.parametrize("name", DEMO_APPS)
def test_demo_apps_explore_clean(name):
    report = explore(get_app(name), budget=10, minimize=False)
    assert report.violation is None
    assert report.schedules_run <= 10


def test_dpor_explores_fewer_schedules_than_exhaustive():
    """Persistent-set reduction: same verdict, measurably fewer runs."""
    app, _ = CORPUS["corpus/independent"]
    dpor = explore(app, strategy="dpor", budget=60, minimize=False)
    exhaustive = explore(app, strategy="exhaustive", budget=60, minimize=False)
    assert dpor.violation is None and exhaustive.violation is None
    assert dpor.exhausted and exhaustive.exhausted
    assert dpor.schedules_run < exhaustive.schedules_run


def test_four_independent_tasks_have_exactly_24_schedules():
    """A schedule space known in closed form: 4 independent tasks on one
    worker are 4! interleavings and a single DPOR equivalence class."""

    def build(rt):
        pool = rt.localities[0].pool

        def job():
            futures = [pool.submit(pow, i, 2, description=f"w{i}") for i in range(4)]
            return sum(f.get() for f in futures)

        return job

    app = ExploreApp(
        name="test/fanout", build=build, n_localities=1, workers_per_locality=1
    )
    exhaustive = explore(app, strategy="exhaustive", budget=100)
    assert exhaustive.exhausted and exhaustive.violation is None
    assert exhaustive.schedules_run == 24
    dpor = explore(app, strategy="dpor", budget=100)
    assert dpor.exhausted and dpor.violation is None
    assert dpor.schedules_run < 24
    # A budgeted random walk spends exactly its budget.
    walk = explore(app, strategy="random", budget=10, seed=3)
    assert walk.schedules_run == 10 and walk.violation is None


def test_unknown_app_name_is_a_validation_error():
    with pytest.raises(ValidationError):
        get_app("corpus/no-such-app")


# ---------------------------------------------------------------------------
# Replay files re-execute deterministically
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["corpus/race_hidden", "corpus/conservation"])
def test_replay_file_roundtrip_bit_identical(name, tmp_path):
    app, kind = CORPUS[name]
    path = tmp_path / "violation.json"
    report = explore(app, replay_path=str(path))
    assert report.replay_path == str(path)
    outcome = replay_file(str(path))
    assert outcome.recorded_kind == kind
    assert outcome.reproduced
    assert outcome.bit_identical
    assert "bit-identically" in outcome.summary()


def test_replay_file_roundtrip_deadlock(tmp_path):
    app, kind = CORPUS["corpus/join_deadlock"]
    path = tmp_path / "violation.json"
    explore(app, replay_path=str(path))
    outcome = replay_file(str(path))
    assert outcome.recorded_kind == kind
    assert outcome.reproduced


def test_replay_file_rejects_foreign_json(tmp_path):
    path = tmp_path / "not-a-replay.json"
    path.write_text('{"kind": "something-else"}')
    with pytest.raises(ValidationError):
        replay_file(str(path))


def test_exploration_is_deterministic():
    """Two identical explorations agree choice-for-choice -- nothing
    (global counters) leaks between runs."""
    app, _ = CORPUS["corpus/conservation"]
    first = explore(app, strategy="random", seed=11, minimize=False)
    second = explore(app, strategy="random", seed=11, minimize=False)
    assert first.schedules_run == second.schedules_run
    assert first.reference_sha256 == second.reference_sha256
    assert first.violation.choices == second.violation.choices
    assert first.violation.kind == second.violation.kind


# ---------------------------------------------------------------------------
# What exploration needs from the runtime: the virtual backend
# ---------------------------------------------------------------------------


def _probe_app(name, config):
    app, _ = CORPUS["corpus/race_fixed"]
    return type(app)(name=name, build=app.build, n_localities=1,
                     workers_per_locality=1, config=config)


def test_explorer_rejects_a_non_virtual_backend():
    probe = _probe_app("corpus/_mp_probe", {"runtime.backend": "multiprocess"})
    with pytest.raises(ConfigError, match="virtual"):
        explore(probe, budget=2, minimize=False)


# ---------------------------------------------------------------------------
# Wait-graph DOT export (satellite)
# ---------------------------------------------------------------------------


def test_wait_graph_dot_without_detector_is_empty_digraph():
    dot = analysis.wait_graph_dot()
    assert dot.startswith("digraph")
    assert "->" not in dot
