"""Schedule-space model checking: drive the runtime through interleavings.

PR 3's sanitizers certify the *one* schedule the cooperative runtime
happened to execute.  This module certifies the schedule *space*: a
:class:`ScheduleController` hooks the ready-set seam in
:class:`~repro.runtime.threads.pool.ThreadPool` (every dispatch exposes
all queued HPX-threads and the controller picks), a strategy enumerates
interleavings, and an invariant oracle checks every terminal state
against the reference schedule:

* bit-identical results (``serialize(result)`` byte equality);
* identical ``/threads{total}`` counters;
* the overload conservation ledger (completed + shed + dead-lettered);
* no deadlock: neither a scheduler stall nor a silent hang (a demanded
  future left in the job's table when it drained);
* happens-before race freedom.

Strategies:

``dpor``
    Exhaustive search with dynamic partial-order reduction.  Each run
    records a per-task *footprint* from the same event vocabulary the
    vector-clock race detector uses (instrumented accesses, state
    fulfil/contribute/read, token put/get); two tasks are independent
    when their footprints cannot conflict, and schedules that merely
    swap independent neighbours are never revisited.
``exhaustive``
    The same search without the reduction (baseline; the tests assert
    DPOR runs measurably fewer schedules).
``pb``
    Iterative preemption bounding (CHESS-style): prefixes are explored
    in order of how many non-default choices they contain, bounded by
    ``preemptions``.
``random``
    Seeded random walk -- one uniform choice per decision point --
    for apps too large to search systematically.

Every run is replayable: the choice trace is a list of indices into the
canonically ordered ready set at each decision point, and a violating
schedule is greedily minimized and written as a JSON replay file that
``repro analyze --replay FILE`` re-executes bit-identically.  All runs
are on the virtual backend only.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..config import Config
from ..errors import DeadlockError, RuntimeStateError, ValidationError
from ..runtime import context as ctx
from ..runtime import instrument
from ..runtime.backend import refuse_off_virtual_clock
from ..runtime.instrument import Probe
from ..runtime.parcel.serialization import serialize
from ..runtime.perfcounters import query
from ..runtime.runtime import Runtime
from .deadlock import DeadlockDetector
from .race import RaceDetector

__all__ = [
    "Decision",
    "ExploreApp",
    "ExploreReport",
    "PrefixStrategy",
    "RandomStrategy",
    "ReplayOutcome",
    "ScheduleController",
    "StepLimitError",
    "Violation",
    "explore",
    "get_app",
    "register_app",
    "registered_apps",
    "replay_file",
    "write_replay",
]

#: Serial of code running outside any controlled HPX-thread.
MAIN_SERIAL = 0

#: Default schedule budget for :func:`explore` (the corpus tests assert
#: every seeded bug is found within this many runs).
DEFAULT_BUDGET = 200

#: Default preemption bound for the ``pb`` strategy.
DEFAULT_PREEMPTIONS = 2

STRATEGIES = ("dpor", "exhaustive", "pb", "random")

#: Counters compared against the reference schedule.  Thread counts are
#: the ISSUE-mandated schedule invariant; parcel counts catch divergence
#: in communication structure.
_COUNTER_PATHS = (
    "/threads{total}/count/cumulative",
    "/parcels{total}/count/sent",
    "/parcels{total}/count/delivered",
)


class StepLimitError(RuntimeStateError):
    """A controlled schedule exceeded its per-run decision budget."""


# ---------------------------------------------------------------------------
# Choice strategies
# ---------------------------------------------------------------------------


class PrefixStrategy:
    """Replay recorded choices, then fall back to the default (index 0).

    The default choice is always the lowest-serial (oldest-submitted)
    ready task, so an empty prefix is the canonical reference schedule.
    """

    def __init__(self, prefix: Sequence[int]) -> None:
        self.prefix = list(prefix)
        self.diverged = False

    def pick(self, point: int, n_candidates: int) -> int:
        if point < len(self.prefix):
            want = self.prefix[point]
            if 0 <= want < n_candidates:
                return want
            self.diverged = True
        return 0


class RandomStrategy:
    """Seeded uniform random walk over the schedule space."""

    def __init__(self, seed: int) -> None:
        import random

        self._rng = random.Random(seed)

    def pick(self, point: int, n_candidates: int) -> int:
        return self._rng.randrange(n_candidates)


# ---------------------------------------------------------------------------
# The controller probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Decision:
    """One dispatch decision: the canonical ready set and the pick."""

    serials: tuple[int, ...]
    index: int
    chosen: int
    pool: str


class _Footprint:
    """What one task touched -- the independence relation's raw material.

    Over-approximated on purpose (a task's whole lifetime, including
    work after it resumes from a block, counts as one footprint): that
    only makes DPOR consider *more* pairs dependent, which costs extra
    schedules but never soundness.
    """

    __slots__ = ("reads", "writes", "sync_mut", "sync_read")

    def __init__(self) -> None:
        self.reads: set[Any] = set()
        self.writes: set[Any] = set()
        self.sync_mut: set[int] = set()
        self.sync_read: set[int] = set()


def _dependent(a: _Footprint, b: _Footprint) -> bool:
    """Can reordering ``a`` and ``b`` change any observable state?"""
    if a.writes & (b.writes | b.reads) or b.writes & a.reads:
        return True
    if a.sync_mut & (b.sync_mut | b.sync_read) or b.sync_mut & a.sync_read:
        return True
    return False


class ScheduleController(Probe):
    """Turns every pool dispatch into a recorded, strategy-driven choice.

    Installed both as each pool's ``controller`` (the :meth:`choose`
    seam) and as an instrument probe (task serials in submission order,
    plus per-task footprints from the race detector's event
    vocabulary).  Serials are per-run -- the global tid counter persists
    across runs, so tids cannot index replay traces.
    """

    def __init__(self, strategy: Any, max_steps: int = 50_000) -> None:
        self.strategy = strategy
        self.max_steps = max_steps
        self.decisions: list[Decision] = []
        self._serials: dict[int, int] = {}
        self._next_serial = MAIN_SERIAL + 1
        self.footprints: dict[int, _Footprint] = {}
        #: Strong refs so id()-keyed maps cannot alias recycled objects.
        self._keepalive: dict[int, Any] = {}

    # Serial bookkeeping ----------------------------------------------------
    def _serial_of(self, task: Any) -> int:
        serial = self._serials.get(id(task))
        if serial is None:
            serial = self._serials[id(task)] = self._next_serial
            self._keepalive[id(task)] = task
            self._next_serial += 1
        return serial

    def task_created(self, parent: Any, task: Any) -> None:
        self._serial_of(task)

    # The dispatch seam -----------------------------------------------------
    def choose(self, pool: Any, candidates: list[Any]) -> Any:
        if len(self.decisions) >= self.max_steps:
            raise StepLimitError(
                f"schedule exceeded {self.max_steps} decision points"
            )
        order = sorted(candidates, key=self._serial_of)
        serials = tuple(self._serial_of(task) for task in order)
        index = self.strategy.pick(len(self.decisions), len(order))
        if not 0 <= index < len(order):  # defensive: strategies are clamped
            index = 0
        self.decisions.append(
            Decision(serials=serials, index=index, chosen=serials[index], pool=pool.name)
        )
        return order[index]

    @property
    def choices(self) -> list[int]:
        return [decision.index for decision in self.decisions]

    # Footprint recording ---------------------------------------------------
    def _footprint(self) -> _Footprint:
        task = ctx.current_task()
        serial = MAIN_SERIAL if task is None else self._serial_of(task)
        footprint = self.footprints.get(serial)
        if footprint is None:
            footprint = self.footprints[serial] = _Footprint()
        return footprint

    def _pin(self, obj: Any) -> int:
        key = id(obj)
        self._keepalive[key] = obj
        return key

    def access(self, owner: Any, field_name: str, kind: str) -> None:
        location = (self._pin(owner), field_name)
        footprint = self._footprint()
        if kind == "write":
            footprint.writes.add(location)
        else:
            footprint.reads.add(location)

    def state_fulfilled(self, state: Any) -> None:
        self._footprint().sync_mut.add(self._pin(state))

    def state_contribute(self, state: Any) -> None:
        self._footprint().sync_mut.add(self._pin(state))

    def state_read(self, state: Any) -> None:
        self._footprint().sync_read.add(self._pin(state))

    def token_put(self, obj: Any) -> None:
        self._footprint().sync_mut.add(self._pin(obj))

    def token_get(self, obj: Any) -> None:
        self._footprint().sync_mut.add(self._pin(obj))


# ---------------------------------------------------------------------------
# Apps under exploration
# ---------------------------------------------------------------------------


@dataclass
class ExploreApp:
    """A job the explorer can run many times.

    ``build(runtime)`` constructs the app's components and returns the
    zero-argument job callable to pass to ``Runtime.run``.  It is called
    once per schedule on a fresh runtime, so it must not capture state
    across calls.  ``invariant(runtime, result)`` (optional) returns an
    error message when an app-level invariant -- e.g. a conservation
    law -- does not hold at the terminal state, else None.
    """

    name: str
    build: Callable[[Runtime], Callable[[], Any]]
    n_localities: int = 1
    workers_per_locality: int = 2
    scheduler: str = "fifo"
    invariant: Callable[[Runtime, Any], str | None] | None = None
    config: dict[str, Any] = field(default_factory=dict)
    max_steps: int = 50_000


_REGISTRY: dict[str, ExploreApp] = {}


def register_app(app: ExploreApp) -> ExploreApp:
    """Make ``app`` addressable by name (CLI ``--app``, replay files)."""
    _REGISTRY[app.name] = app
    return app


def get_app(name: str) -> ExploreApp:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "none"
        raise ValidationError(
            f"unknown explore app {name!r} (registered: {known})"
        ) from None


def registered_apps() -> list[str]:
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# Running one schedule
# ---------------------------------------------------------------------------


@dataclass
class ScheduleOutcome:
    """Everything the oracle needs about one terminal schedule."""

    choices: list[int]
    decisions: list[Decision]
    footprints: dict[int, _Footprint]
    status: str  # ok | deadlock | hang | step-limit | error
    error: str = ""
    graph_dot: str | None = None
    result_blob: bytes | None = None
    counters: dict[str, float] = field(default_factory=dict)
    races: list[str] = field(default_factory=list)
    invariant_error: str | None = None

    def result_sha256(self) -> str | None:
        if self.result_blob is None:
            return None
        return hashlib.sha256(self.result_blob).hexdigest()


def _run_schedule(app: ExploreApp, strategy: Any) -> ScheduleOutcome:
    """Execute ``app`` once under ``strategy``; never raises for
    schedule-induced failures (they land in the outcome's status)."""
    controller = ScheduleController(strategy, max_steps=app.max_steps)
    race = RaceDetector(report="collect")
    deadlock = DeadlockDetector()
    overrides = dict(app.config)
    overrides.setdefault("threads.scheduler", app.scheduler)
    config = Config().replace(**{k.replace(".", "__"): v for k, v in overrides.items()})
    if config.get_str("runtime.backend") != "virtual":
        refuse_off_virtual_clock("schedule exploration")

    status, error, graph_dot = "ok", "", None
    result: Any = None
    result_blob: bytes | None = None
    counters: dict[str, float] = {}
    invariant_error: str | None = None
    rt: Runtime | None = None
    ran = False
    instrument.install(race)
    instrument.install(deadlock)
    instrument.install(controller)
    try:
        try:
            with Runtime(
                n_localities=app.n_localities,
                workers_per_locality=app.workers_per_locality,
                config=config,
            ) as active:
                rt = active
                for locality in rt.localities:
                    locality.pool.controller = controller
                result = rt.run(app.build(rt))
                ran = True
        except StepLimitError as exc:
            status, error = "step-limit", str(exc)
        except DeadlockError as exc:
            # Before the job returned: a scheduler stall (wait cycle).
            # After: the drain quiesced with continuations that can
            # never fire -- the silent-hang variant.
            status = "hang" if ran else "deadlock"
            error = str(exc)
            graph = deadlock.last_graph or deadlock.wait_graph()
            graph_dot = graph.to_dot()
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            status, error = "error", f"{type(exc).__name__}: {exc}"
        else:
            result_blob = serialize(result)
            counters = {path: query(rt, path) for path in _COUNTER_PATHS}
            overload = rt._overload
            if overload is not None:
                counters["overload.ledger"] = float(
                    overload.parcels_completed
                    + overload.parcels_shed
                    + rt.parcelport.parcels_dead_lettered
                )
            if app.invariant is not None:
                invariant_error = app.invariant(rt, result)
    finally:
        instrument.uninstall(controller)
        instrument.uninstall(deadlock)
        instrument.uninstall(race)
    return ScheduleOutcome(
        choices=controller.choices,
        decisions=controller.decisions,
        footprints=controller.footprints,
        status=status,
        error=error,
        graph_dot=graph_dot,
        result_blob=result_blob,
        counters=counters,
        races=[str(found) for found in race.findings()],
        invariant_error=invariant_error,
    )


# ---------------------------------------------------------------------------
# The invariant oracle
# ---------------------------------------------------------------------------


@dataclass
class Violation:
    """A schedule on which an invariant does not hold."""

    kind: str  # deadlock | hang | race | invariant |
    #            result-divergence | counter-divergence | step-limit | error
    detail: str
    choices: list[int] = field(default_factory=list)
    graph_dot: str | None = None

    def describe(self) -> str:
        text = f"[{self.kind}] after choices {self.choices}: {self.detail}"
        return text


def _violation_of(
    outcome: ScheduleOutcome, reference: ScheduleOutcome
) -> Violation | None:
    """First violated invariant of ``outcome`` vs the reference run."""
    if outcome.status in ("deadlock", "hang", "step-limit", "error"):
        return Violation(
            kind=outcome.status,
            detail=outcome.error,
            choices=list(outcome.choices),
            graph_dot=outcome.graph_dot,
        )
    if outcome.races:
        return Violation(
            kind="race",
            detail="; ".join(outcome.races[:2]),
            choices=list(outcome.choices),
        )
    if outcome.invariant_error:
        return Violation(
            kind="invariant",
            detail=outcome.invariant_error,
            choices=list(outcome.choices),
        )
    if outcome.result_blob != reference.result_blob:
        return Violation(
            kind="result-divergence",
            detail=(
                f"result sha256 {outcome.result_sha256()} != reference "
                f"{reference.result_sha256()} (solutions must be "
                f"bit-identical across schedules)"
            ),
            choices=list(outcome.choices),
        )
    if outcome.counters != reference.counters:
        diffs = [
            f"{path}: {outcome.counters.get(path)} != {reference.counters.get(path)}"
            for path in set(outcome.counters) | set(reference.counters)
            if outcome.counters.get(path) != reference.counters.get(path)
        ]
        return Violation(
            kind="counter-divergence",
            detail="; ".join(sorted(diffs)),
            choices=list(outcome.choices),
        )
    return None


# ---------------------------------------------------------------------------
# Exploration engines
# ---------------------------------------------------------------------------


@dataclass
class ExploreReport:
    """Result of one :func:`explore` call."""

    app: str
    strategy: str
    budget: int
    schedules_run: int = 0
    exhausted: bool = False
    violation: Violation | None = None
    minimize_runs: int = 0
    replay_path: str | None = None
    reference_sha256: str | None = None

    def summary(self) -> str:
        if self.violation is None:
            coverage = (
                "search space exhausted"
                if self.exhausted
                else f"budget {self.budget} reached"
            )
            return (
                f"{self.app} [{self.strategy}]: {self.schedules_run} schedules, "
                f"{coverage}, no violations"
            )
        text = (
            f"{self.app} [{self.strategy}]: VIOLATION after "
            f"{self.schedules_run} schedules -- {self.violation.describe()}"
        )
        if self.replay_path:
            text += f"\n  replay: {self.replay_path}"
        return text


def _trim(choices: Sequence[int]) -> list[int]:
    """Drop trailing default choices (they replay identically)."""
    trimmed = list(choices)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    return trimmed


def _preemptions(prefix: Sequence[int]) -> int:
    """Non-default choices in a prefix -- the CHESS preemption count."""
    return sum(1 for index in prefix if index)


def _guided_explore(
    app: ExploreApp,
    report: ExploreReport,
    reference: ScheduleOutcome,
    budget: int,
    dpor: bool,
    bound: int | None,
    ordered: bool,
) -> tuple[ScheduleOutcome, Violation] | None:
    """Systematic search seeded from the reference run.

    ``dpor=True`` expands only schedule prefixes that reverse a pair of
    *dependent* dispatches (classic backtrack-set DPOR over recorded
    footprints); ``dpor=False`` expands every alternative at every
    decision point.  ``bound`` caps preemptions per prefix; ``ordered``
    explores low-preemption prefixes first (iterative bounding).
    """
    seen: set[tuple[int, ...]] = set()
    frontier: list[list[int]] = []

    def enqueue(prefix: list[int]) -> None:
        trimmed = _trim(prefix)
        if not trimmed:
            return  # the reference schedule itself
        key = tuple(trimmed)
        if key in seen:
            return
        if bound is not None and _preemptions(trimmed) > bound:
            return
        seen.add(key)
        frontier.append(trimmed)

    def expand(outcome: ScheduleOutcome) -> None:
        decisions = outcome.decisions
        choices = outcome.choices
        if not dpor:
            for i, decision in enumerate(decisions):
                for alt in range(len(decision.serials)):
                    if alt != decision.index:
                        enqueue(choices[:i] + [alt])
            return
        footprints = outcome.footprints
        for j, later in enumerate(decisions):
            fp_later = footprints.get(later.chosen)
            if fp_later is None:
                continue
            for i in range(j - 1, -1, -1):
                earlier = decisions[i]
                fp_earlier = footprints.get(earlier.chosen)
                if fp_earlier is None or not _dependent(fp_earlier, fp_later):
                    continue
                # Reverse the race: try running the later task at the
                # earlier dependent decision point.  When it was not
                # enabled there, fall back to every alternative (the
                # conservative backtrack set).
                if later.chosen in earlier.serials:
                    alt = earlier.serials.index(later.chosen)
                    if alt != earlier.index:
                        enqueue(choices[:i] + [alt])
                else:
                    for alt in range(len(earlier.serials)):
                        if alt != earlier.index:
                            enqueue(choices[:i] + [alt])
                break  # nearest dependent predecessor only

    expand(reference)
    while frontier and report.schedules_run < budget:
        if ordered:
            pick = min(
                range(len(frontier)),
                key=lambda k: (_preemptions(frontier[k]), len(frontier[k])),
            )
            prefix = frontier.pop(pick)
        else:
            prefix = frontier.pop()
        outcome = _run_schedule(app, PrefixStrategy(prefix))
        report.schedules_run += 1
        violation = _violation_of(outcome, reference)
        if violation is not None:
            return outcome, violation
        expand(outcome)
    report.exhausted = not frontier
    return None


def _random_explore(
    app: ExploreApp,
    report: ExploreReport,
    reference: ScheduleOutcome,
    budget: int,
    seed: int,
) -> tuple[ScheduleOutcome, Violation] | None:
    walk = 0
    while report.schedules_run < budget:
        outcome = _run_schedule(app, RandomStrategy(seed + walk))
        walk += 1
        report.schedules_run += 1
        violation = _violation_of(outcome, reference)
        if violation is not None:
            return outcome, violation
    return None


def _minimize(
    app: ExploreApp,
    reference: ScheduleOutcome,
    outcome: ScheduleOutcome,
    violation: Violation,
    report: ExploreReport,
    max_runs: int = 64,
) -> tuple[ScheduleOutcome, Violation]:
    """Greedy choice-trace reduction: zero out non-default choices (and
    trim trailing defaults) while the same violation kind reproduces."""
    choices = _trim(outcome.choices)
    best_outcome, best_violation = outcome, violation
    progress = True
    while progress and report.minimize_runs < max_runs:
        progress = False
        for position in [k for k, c in enumerate(choices) if c][::-1]:
            trial = list(choices)
            trial[position] = 0
            trial = _trim(trial)
            candidate = _run_schedule(app, PrefixStrategy(trial))
            report.minimize_runs += 1
            found = _violation_of(candidate, reference)
            if found is not None and found.kind == violation.kind:
                choices = trial
                best_outcome, best_violation = candidate, found
                progress = True
                break
            if report.minimize_runs >= max_runs:
                break
    best_violation.choices = _trim(choices)
    return best_outcome, best_violation


def explore(
    app: ExploreApp | str,
    strategy: str = "dpor",
    budget: int = DEFAULT_BUDGET,
    preemptions: int = DEFAULT_PREEMPTIONS,
    seed: int = 0,
    minimize: bool = True,
    replay_path: str | None = None,
) -> ExploreReport:
    """Explore ``app``'s schedule space; returns the first violation
    found (minimized, optionally written as a replay file) or a clean
    report.  ``budget`` counts executed schedules, reference included.
    """
    if isinstance(app, str):
        app = get_app(app)
    if strategy not in STRATEGIES:
        raise ValidationError(
            f"strategy must be one of {STRATEGIES}, got {strategy!r}"
        )
    report = ExploreReport(app=app.name, strategy=strategy, budget=budget)
    reference = _run_schedule(app, PrefixStrategy([]))
    report.schedules_run += 1
    report.reference_sha256 = reference.result_sha256()
    # The reference schedule must itself be clean: a default-schedule
    # deadlock/race/invariant failure is a (degenerate) violation.
    found = _violation_of(reference, reference)
    if found is None and report.schedules_run < budget:
        if strategy == "random":
            hit = _random_explore(app, report, reference, budget, seed)
        else:
            hit = _guided_explore(
                app,
                report,
                reference,
                budget,
                dpor=(strategy == "dpor"),
                bound=preemptions if strategy == "pb" else None,
                ordered=(strategy == "pb"),
            )
        if hit is not None:
            outcome, found = hit
            if minimize:
                outcome, found = _minimize(app, reference, outcome, found, report)
    if found is not None:
        report.violation = found
        if replay_path is not None:
            final = _run_schedule(app, PrefixStrategy(found.choices))
            write_replay(replay_path, app, found, final, reference)
            report.replay_path = replay_path
    return report


# ---------------------------------------------------------------------------
# Replay files
# ---------------------------------------------------------------------------


@dataclass
class ReplayOutcome:
    """Result of re-executing a recorded violating schedule."""

    reproduced: bool
    bit_identical: bool
    violation: Violation | None
    recorded_kind: str
    outcome: ScheduleOutcome

    def summary(self) -> str:
        if self.reproduced and self.bit_identical:
            return (
                f"replay OK: [{self.recorded_kind}] reproduced bit-identically"
            )
        if self.reproduced:
            return (
                f"replay DIVERGED: [{self.recorded_kind}] reproduced but the "
                f"terminal state hash changed"
            )
        got = self.violation.kind if self.violation is not None else "no violation"
        return f"replay FAILED: recorded [{self.recorded_kind}], got {got}"


def write_replay(
    path: str,
    app: ExploreApp,
    violation: Violation,
    outcome: ScheduleOutcome,
    reference: ScheduleOutcome,
) -> None:
    """Persist a violating schedule as a deterministic replay file."""
    payload = {
        "version": 1,
        "kind": "repro-schedule-replay",
        "app": app.name,
        "choices": list(violation.choices),
        "violation": {"kind": violation.kind, "detail": violation.detail},
        "result_sha256": outcome.result_sha256(),
        "reference_sha256": reference.result_sha256(),
        "graph_dot": violation.graph_dot,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def replay_file(path: str) -> ReplayOutcome:
    """Re-execute a replay file's schedule and verify it reproduces."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("kind") != "repro-schedule-replay":
        raise ValidationError(f"{path} is not a schedule replay file")
    app = get_app(data["app"])
    reference = _run_schedule(app, PrefixStrategy([]))
    outcome = _run_schedule(app, PrefixStrategy(list(data["choices"])))
    violation = _violation_of(outcome, reference)
    recorded_kind = data["violation"]["kind"]
    reproduced = violation is not None and violation.kind == recorded_kind
    bit_identical = outcome.result_sha256() == data.get("result_sha256")
    return ReplayOutcome(
        reproduced=reproduced,
        bit_identical=bit_identical,
        violation=violation,
        recorded_kind=recorded_kind,
        outcome=outcome,
    )


# ---------------------------------------------------------------------------
# Demo apps (the CLI's --explore targets)
# ---------------------------------------------------------------------------


def _scale3(values: Any) -> Any:
    return values * 3.0


def _seg_sum(values: Any) -> float:
    return float(values.sum())


def _build_heat1d(rt: Runtime) -> Callable[[], Any]:
    from ..stencil import DistributedHeat1D, Heat1DParams, analytic_heat_profile

    nx = 8 * rt.n_localities
    solver = DistributedHeat1D(rt, nx, Heat1DParams())
    solver.initialize(analytic_heat_profile(nx))
    return lambda: solver.run(2)


def _build_jacobi2d(rt: Runtime) -> Callable[[], Any]:
    import numpy as np

    from ..stencil.jacobi2d_dist import DistributedJacobi2D

    ny = 2 * rt.n_localities + 2
    nx = 8
    solver = DistributedJacobi2D(rt, ny, nx)
    field_0 = np.linspace(0.0, 1.0, ny * nx, dtype=np.float64).reshape(ny, nx)
    solver.initialize(field_0)
    return lambda: solver.run(2)


def _build_partitioned_vector(rt: Runtime) -> Callable[[], Any]:
    from ..containers.partitioned_vector import PartitionedVector

    def job() -> Any:
        vector = PartitionedVector(rt, 12, initial=1.5, segments_per_locality=2)
        vector.map_inplace(_scale3)
        total = vector.reduce(_seg_sum, lambda a, b: a + b, 0.0)
        return total, vector.to_array()

    return job


DEMO_APPS = ("heat1d", "jacobi2d", "partitioned_vector")

register_app(
    ExploreApp(name="heat1d", build=_build_heat1d, n_localities=2,
               workers_per_locality=2)
)
register_app(
    ExploreApp(name="jacobi2d", build=_build_jacobi2d, n_localities=2,
               workers_per_locality=2)
)
register_app(
    ExploreApp(name="partitioned_vector", build=_build_partitioned_vector,
               n_localities=2, workers_per_locality=2)
)
