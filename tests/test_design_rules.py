"""The design rules as one ledger: each row names a deleted mechanism
that must not come back.

Every row is one rule: the patterns it greps for, the paths it greps,
its exemptions, and the message that says where the one surviving
mechanism lives.  Each check in a row carries an offending snippet,
which ``test_a_rule_catches_its_offending_snippet`` lays over the tree
(appended to the file it names, or as a new file) and the check must
then report, so no rule rots into a no-op.  The row names are the
design decisions they guard; docs/ says why each one was made.

A check sees every file under its paths except ``__pycache__`` and
``*.egg-info`` (never committed) and this file, whose table spells out
every pattern it forbids.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SELF = Path(__file__).resolve().relative_to(ROOT).as_posix()
SKIPPED_DIRS = re.compile(r"(^|/)(__pycache__|[^/]*\.egg-info)(/|$)")


class Tree:
    """The repository's files, optionally with extra text laid over
    them: ``overlay`` maps a path to text appended to that file (a new
    file when there is none)."""

    def __init__(self, root: Path, overlay: dict[str, str] | None = None) -> None:
        self.root = root
        self.overlay = overlay or {}

    def exists(self, path: str) -> bool:
        return (self.root / path).exists() or any(
            key == path or key.startswith(path.rstrip("/") + "/") for key in self.overlay
        )

    def files(self, path: str) -> list[str]:
        """Every file at or under ``path``, as a root-relative path."""
        base = self.root / path
        found = {path} if base.is_file() else set()
        if base.is_dir():
            found.update(
                p.relative_to(self.root).as_posix() for p in base.rglob("*") if p.is_file()
            )
        prefix = path.rstrip("/") + "/"
        found.update(key for key in self.overlay if key == path or key.startswith(prefix))
        return sorted(f for f in found if f != SELF and not SKIPPED_DIRS.search(f))

    def lines(self, path: str) -> list[str]:
        file = self.root / path
        text = file.read_text(errors="replace") if file.is_file() else ""
        if path in self.overlay:
            text = text + ("" if not text or text.endswith("\n") else "\n") + self.overlay[path]
        return text.splitlines()


@dataclass(frozen=True)
class Grep:
    """``grep -rn[i] pattern paths``, minus lines matching ``exempt`` and
    files whose path matches ``exempt_path``."""

    pattern: str
    paths: tuple[str, ...]
    offending: tuple[str, str]
    ignore_case: bool = False
    exempt: str | None = None
    exempt_path: str | None = None

    def __call__(self, tree: Tree) -> list[str]:
        regex = re.compile(self.pattern, re.IGNORECASE if self.ignore_case else 0)
        return [
            f"{path}:{n}: {line}"
            for root in self.paths
            for path in tree.files(root)
            if not (self.exempt_path and re.search(self.exempt_path, path))
            for n, line in enumerate(tree.lines(path), 1)
            if regex.search(line) and not (self.exempt and re.search(self.exempt, line))
        ]


@dataclass(frozen=True)
class Absent:
    """``ls path``: the path must not exist."""

    path: str
    offending: tuple[str, str]

    def __call__(self, tree: Tree) -> list[str]:
        return [self.path] if tree.exists(self.path) else []


@dataclass(frozen=True)
class Once:
    """``grep -rhoE pattern paths | sort | uniq -d``: no match text occurs
    twice."""

    pattern: str
    paths: tuple[str, ...]
    offending: tuple[str, str]

    def __call__(self, tree: Tree) -> list[str]:
        regex = re.compile(self.pattern)
        seen: dict[str, int] = {}
        for root in self.paths:
            for path in tree.files(root):
                for line in tree.lines(path):
                    for match in regex.finditer(line):
                        seen[match.group()] = seen.get(match.group(), 0) + 1
        return sorted(text for text, count in seen.items() if count > 1)


@dataclass(frozen=True)
class AtMost:
    """``grep -c pattern path`` must not exceed ``limit``."""

    grep: Grep
    limit: int

    @property
    def offending(self) -> tuple[str, str]:
        return self.grep.offending

    def __call__(self, tree: Tree) -> list[str]:
        found = self.grep(tree)
        return found if len(found) > self.limit else []


@dataclass(frozen=True)
class Scoped:
    """Lines of ``path`` matching ``pattern`` inside (``inside=True``) or
    outside a scope.  A line matching ``start`` opens the scope and is
    itself skipped; a line matching ``end`` closes it."""

    pattern: str
    path: str
    start: str
    end: str
    inside: bool
    offending: tuple[str, str]

    def __call__(self, tree: Tree) -> list[str]:
        found, inside = [], False
        for n, line in enumerate(tree.lines(self.path), 1):
            if re.search(self.start, line):
                inside = True
                continue
            if re.search(self.end, line):
                inside = False
            if inside == self.inside and re.search(self.pattern, line):
                found.append(f"{self.path}:{n}: {line}")
        return found


#: Names that only tests reach, kept on purpose: an oracle a document
#: cites, an invariant only a test reads, or protocol a planned change needs.
KEPT = {
    "structural_instructions_per_lup":
        "the first-principles instructions/LUP oracle (docs/calibration.md)",
    "effective_vector_width":
        "the vector width DESIGN.md's SIMD row names, checked against the ISA lanes",
    "resident_lines": "the cache simulator's capacity invariant (test_prop_cachesim.py)",
    "stencil_transfers_per_update":
        "the analytic traffic rule test_hw_cachesim.py checks the cache simulator against",
    "ys": "a figure series' y column, twin of xs, read by the paper-exhibit asserts",
    "events_of": "the tracer query docs/observability.md documents",
    "renew": "lease renewal, the job-service protocol ROADMAP item 13 needs",
}


def _definitions(module: ast.Module):
    """``(name, line)`` of each top-level function and class and of each
    method, minus dunders and an ``ast.NodeVisitor``'s ``visit_*``."""
    for node in module.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node.name, node.lineno
        if not isinstance(node, ast.ClassDef):
            continue
        visitor = any(ast.unparse(base).endswith("NodeVisitor") for base in node.bases)
        for sub in node.body:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                visitor and sub.name.startswith("visit_")
            ):
                yield sub.name, sub.lineno


@dataclass(frozen=True)
class Reached:
    """Every function, class and method defined under ``defs`` is named
    under ``uses`` somewhere besides its own ``def``/``class`` line, as a
    word or inside a string (actions are invoked by name); dunders and
    ``KEPT`` are exempt.  A name that only tests reach fails."""

    defs: str
    uses: tuple[str, ...]
    offending: tuple[str, str]

    def __call__(self, tree: Tree) -> list[str]:
        words: Counter[str] = Counter()
        for root in self.uses:
            for path in tree.files(root):
                if path.endswith(".py"):
                    words.update(re.findall(r"\w+", "\n".join(tree.lines(path))))
        sites: dict[str, list[str]] = {}
        for path in tree.files(self.defs):
            if not path.endswith(".py"):
                continue
            lines = tree.lines(path)
            for name, n in _definitions(ast.parse("\n".join(lines))):
                if name.startswith("__") and name.endswith("__") or name in KEPT:
                    continue
                words[name] -= re.findall(r"\w+", lines[n - 1]).count(name)
                sites.setdefault(name, []).append(f"{path}:{n}: {lines[n - 1].strip()}")
        return [site for name, at in sorted(sites.items()) if words[name] <= 0 for site in at]


@dataclass(frozen=True)
class Rule:
    name: str
    message: str
    checks: tuple


RULES = {
    "observation-seam": Rule(
        "One observation seam (no hook attributes, no patched methods, no runtime.trace)",
        "observe the runtime through repro.runtime.instrument (docs/observability.md)",
        (
            # The port's own install_router assignment is the one legitimate match.
            Grep(
                r"event_hook|\._execute = |\.acquire = |\._router = |\._handle_loss = "
                r"|runtime\.trace",
                ("src/",),
                ("src/repro/runtime/runtime.py", "        self.event_hook = None\n"),
                exempt=r"self\._router = router",
            ),
        ),
    ),
    "halo-chain": Rule(
        "One halo-exchange chain (the partition protocol and its driver have one body each)",
        "defined more than once under src/repro/stencil/ (the protocol lives in "
        "stencil/halo.py)",
        (
            Once(
                r"def (ensure_chain|reset_chain|chain_result|_halo_promise|run_resilient)\b",
                ("src/repro/stencil/",),
                ("src/repro/stencil/heat1d.py", "    def run_resilient(self, steps):\n"),
            ),
        ),
    ),
    "one-wire": Rule(
        "One way onto the wire (no virtual coalescing layer, no body-mode knobs)",
        "the port type decides how a parcel body travels (docs/performance.md)",
        (
            Grep(
                r"batch(er|ing)|zero_copy|_serialize_parcels",
                ("src/",),
                ("src/repro/runtime/parcel/parcelport.py", "class ParcelBatcher:\n    pass\n"),
                ignore_case=True,
            ),
        ),
    ),
    "no-outbox": Rule(
        "A parcel leaves when it is routed (no outbox, no flush, no blocking write)",
        "a cross-process parcel is written when it is routed, through a non-blocking "
        "_Channel (docs/architecture.md)",
        (
            Grep(
                r"_outbox|_OUTBOX_CAP|def flush|multiprocessing\.connection",
                ("src/repro/runtime/backend/",),
                ("src/repro/runtime/backend/multiprocess.py", "        self._outbox = []\n"),
            ),
            Grep(
                r"remote\.flush",
                ("src/repro/runtime/runtime.py",),
                ("src/repro/runtime/runtime.py", "        self.remote.flush()\n"),
            ),
        ),
    ),
    "one-backend-reference": Rule(
        "One reference to the other processes (Runtime.backend is None or multiprocess; "
        "AGAS mirrors, never brokers)",
        "Runtime.backend is the one reference to the other processes, and mirroring is "
        "AGAS's one coherence mechanism (docs/architecture.md)",
        (
            Absent(
                "src/repro/runtime/backend/base.py",
                ("src/repro/runtime/backend/base.py", "class Backend:\n    pass\n"),
            ),
            Absent(
                "src/repro/runtime/backend/virtual.py",
                ("src/repro/runtime/backend/virtual.py", "class Backend:\n    pass\n"),
            ),
            Grep(
                r"class ExecutionBackend|VirtualClockBackend|create_backend|_remote\b"
                r"|\.broker\b|_broker_resolve",
                ("src/",),
                ("src/repro/runtime/runtime.py", "        self.backend = create_backend(self)\n"),
            ),
        ),
    ),
    "lost-continuations": Rule(
        "One record of lost continuations (the job's table of demanded futures; "
        "no weak registry, no forgiven event)",
        "futures.demand() records a lost continuation in Runtime.demanded and is the one "
        "state_linked report (docs/analysis.md)",
        (
            Grep(
                r"WeakKeyDictionary|pending_demand_states|pending_demands"
                r"|_preexisting_demands|def forgiven",
                ("src/",),
                (
                    "src/repro/runtime/futures.py",
                    "def _live():\n    return weakref.WeakKeyDictionary()\n",
                ),
            ),
            Grep(
                r"\.state_linked\(",
                ("src/repro/runtime/",),
                (
                    "src/repro/runtime/lco/dataflow.py",
                    "        probe.state_linked([], state, label)\n",
                ),
                exempt_path=r"^src/repro/runtime/futures\.py$",
            ),
        ),
    ),
    "one-test-root": Rule(
        "One test root, one timing harness (paper asserts in tier-1, wall-clock timing "
        "in bench/)",
        "assert under tests/ (tier-1 collects it), time under bench/ (BENCHMARK.json "
        "gates it)",
        (
            Absent("benchmarks", ("benchmarks/test_speed.py", "def test_speed():\n    pass\n")),
            Grep(
                r"pytest.benchmark|\bbenchmark\(|save_exhibit",
                ("src", "tests", "examples"),
                (
                    "tests/perf/test_pf_call_budget.py",
                    "def test_speed(benchmark):\n    benchmark(sum, [1])\n",
                ),
            ),
        ),
    ),
    "one-scheduler": Rule(
        "One scheduler body, one backoff, 14 config keys (policies are data; deleted keys "
        "stay deleted)",
        "threads.scheduler is data in Scheduler, RetryPolicy is the backoff, constants "
        "live at their reader (docs/performance.md)",
        (
            Grep(
                r"class (Fifo|Static|WorkStealing)Scheduler|make_scheduler|WeightedFairQueues"
                r"|RetryBudget|threads(\.|__)pin|overload(\.|__)phi_|runtime(\.|__)mp_",
                ("src/",),
                ("src/repro/runtime/threads/scheduler.py", "class FifoScheduler:\n    pass\n"),
            ),
        ),
    ),
    "tables-not-chains": Rule(
        "Tables, not chains (one counter catalogue, one handler bound to each sub-parser)",
        "a command is a sub-parser with set_defaults(handler=...) in its src/repro/cli/ "
        "group module; a counter is one row in perfcounters._CATALOGUE / _THREADS, "
        "not a branch",
        (
            Absent("src/repro/cli.py", ("src/repro/cli.py", "def main():\n    pass\n")),
            Grep(
                r"args\.(jobs_)?command ==",
                ("src/repro/cli",),
                ("src/repro/cli/run.py", "    if args.command == 'run':\n        pass\n"),
            ),
            AtMost(
                Grep(
                    r"if (counter|obj) (==|in) ",
                    ("src/repro/runtime/perfcounters.py",),
                    (
                        "src/repro/runtime/perfcounters.py",
                        "def _value(counter):\n"
                        + "    if counter == 'idle-rate':\n        return 0\n" * 5,
                    ),
                ),
                limit=4,
            ),
        ),
    ),
    "one-parcel-body": Rule(
        "One parcel body (action, args, kwargs; the target rides on the parcel, not in "
        "the body)",
        "a parcel body is (action, args, kwargs); parcel.target_gid says which kind it is",
        (
            Grep(
                r"__component__|__plain__",
                ("src",),
                ("src/repro/runtime/parcel/parcel.py", 'KIND = "__component__"\n'),
            ),
        ),
    ),
    "one-job-record": Rule(
        "One record of a job (the lease is the job's two fields; counts and dedupe read "
        "the store's indexes)",
        "the job store is the service's one record (docs/job-service.md); only "
        "_recover's replay walk and list_jobs may scan the store",
        (
            Absent(
                "src/repro/service/leases.py",
                ("src/repro/service/leases.py", "class Lease:\n    pass\n"),
            ),
            Grep(
                r"LeaseManager",
                ("src/",),
                ("src/repro/service/service.py", "from .leases import LeaseManager\n"),
            ),
            AtMost(
                Grep(
                    r"store\.jobs\(",
                    ("src/repro/service/service.py",),
                    (
                        "src/repro/service/service.py",
                        "def _count(store):\n    return len(list(store.jobs()))\n",
                    ),
                ),
                limit=2,
            ),
        ),
    ),
    "oracle-not-product": Rule(
        "The oracle is not the product (jobs run the solvers' kernel; only "
        "heat1d_reference rolls)",
        "the np.roll oracle checks the job service, it does not run its jobs "
        "(docs/job-service.md)",
        (
            Grep(
                r"heat1d_reference|np\.roll",
                ("src/repro/service/",),
                (
                    "src/repro/service/executor.py",
                    "from ..stencil.heat1d import heat1d_reference\n",
                ),
            ),
            Scoped(
                r"np\.roll",
                "src/repro/stencil/heat1d.py",
                start=r"^def heat1d_reference\(",
                end=r"^[^\s#]",
                inside=False,
                offending=(
                    "src/repro/stencil/heat1d.py",
                    "def _step(u):\n    return np.roll(u, 1)\n",
                ),
            ),
        ),
    ),
    "one-jacobi-sweep": Rule(
        "One Jacobi sweep (the neighbour sum is written once, for both Jacobi apps; the "
        "2D slice sum is the oracle's and the VNS row kernel's)",
        "advance and local_residual call _sweep, Jacobi2D's scalar blocks call "
        "_neighbour_sum; jacobi_reference_step stays the 2D oracle",
        (
            Grep(
                re.escape("[2:, 1:-1] +"),
                ("src/repro/stencil/jacobi2d_dist.py",),
                (
                    "src/repro/stencil/jacobi2d_dist.py",
                    "    new = (u[2:, 1:-1] + u[:-2, 1:-1]) * 0.5\n",
                ),
            ),
            Scoped(
                r"\w\[[^\]]*,[^\]]*\]\s*\+|\+\s*\w+\[[^\]]*,",
                "src/repro/stencil/jacobi2d.py",
                start=r"^def (jacobi_reference_step|update_row_vns)\b",
                end=r"^(def|class) ",
                inside=False,
                offending=(
                    "src/repro/stencil/jacobi2d.py",
                    "    def stencil_update_block(self, rows, t):\n"
                    "        nxt[y0:y1, 1:-1] = 0.25 * (\n"
                    "            curr[y0:y1, :-2]\n"
                    "            + curr[y0:y1, 2:]\n"
                    "            + curr[y0 - 1 : y1 - 1, 1:-1]\n"
                    "            + curr[y0 + 1 : y1 + 1, 1:-1]\n"
                    "        )\n",
                ),
            ),
        ),
    ),
    "one-heat1d-step": Rule(
        "One heat1d step, one directory scan per attempt (no edge formulas; epochs prune "
        "the attempt's trail)",
        "the heat1d step is _heat_steps over a padded buffer; an attempt lists and "
        "creates its job directory once (docs/job-service.md)",
        (
            Grep(
                re.escape("new[0] = u[0] + k"),
                ("src/repro/stencil/heat1d.py",),
                (
                    "src/repro/stencil/heat1d.py",
                    "    new[0] = u[0] + k * (u[-1] - 2.0 * u[0] + u[1])\n",
                ),
            ),
            Scoped(
                r"os\.makedirs|_saved_epochs\(",
                "src/repro/service/executor.py",
                start=r"^    def _checkpoint\(",
                end=r"^    (def |@)|^\S",
                inside=True,
                offending=(
                    "src/repro/service/executor.py",
                    "class _Attempt:\n    def _checkpoint(self, state):\n"
                    "        os.makedirs(self.root, exist_ok=True)\n",
                ),
            ),
        ),
    ),
    "application-surface": Rule(
        "Only the surface an application reaches (no collectives, RemoteChannel, executors, "
        "unused algorithms, Pack layer, latch/barrier/semaphore/and-gate LCOs, replay, "
        "replicate or timed actions, when_any/when_each/unwrap, AGAS reference counts, "
        "Jacobi2D's blocked or convergence runs, a partitioned heat1d, a partitioned "
        "vector or the accessors only tests called; a policy is a name, parallel and a "
        "chunk size)",
        "an application, exhibit, bench workload, explorer demo or CLI command must reach "
        "a runtime API; futures with then/when_all, dataflow, Channel, "
        "for_each/for_each_block and VnsLayout are the kept surface (docs/api.md)",
        (
            Grep(
                r"\bcollectives\b|RemoteChannel|ChannelComponent|PoolExecutor|BlockExecutor"
                r"|\b(reduce_|inclusive_scan|transform_block|for_loop|par_simd)\b"
                r"|LaneMismatchError",
                ("src/", "examples/"),
                (
                    "examples/quickstart.py",
                    "total = reduce_(par, range(1, 101), 0, operator.add)\n",
                ),
            ),
            Grep(
                r"simd\.(pack|ops|typetraits)\b|from \.(pack|ops|typetraits) import"
                r"|threads\.executor\b",
                ("src/", "examples/"),
                ("src/repro/simd/__init__.py", "from .pack import Pack\n"),
            ),
            Grep(
                r"\bvectorize\b|\bexecutor\b|def on\(",
                ("src/repro/runtime/algorithms/execution_policy.py",),
                (
                    "src/repro/runtime/algorithms/execution_policy.py",
                    "    executor: Optional[object] = None\n",
                ),
            ),
            Grep(
                r"\b(Latch|Barrier|CountingSemaphore|AndGate|lco_labelled"
                r"|async_replay|async_replicate|async_after|sleep_for"
                r"|ReplayExhaustedError|ReplicateError"
                r"|when_any|when_each|unwrap|make_exceptional_future"
                r"|incref|decref|refcount|unregister|on_destroy)\b"
                r"|from \.(latch|barrier|semaphore|and_gate) import",
                ("src/", "examples/"),
                ("examples/quickstart.py", "latch = Latch(4)\n"),
            ),
            Grep(
                r"\b(run_blocked|run_until_converged|Heat1DPartitioned)\b",
                ("src/", "examples/"),
                ("src/repro/stencil/heat1d.py", "class Heat1DPartitioned:\n"),
            ),
            Grep(
                r"PartitionedVector|VectorSegment|repro\.containers|from \.\.containers"
                r"|\b(pending_links|registered_apps|last_level|stream_misses"
                r"|per_core_bandwidth|pus_per_node|domain_of_core|by_worker|table_row"
                r"|traffic_per_lup_bytes|is_local|worker_stats|has_exception"
                r"|find_all_localities|reset_clock|to_record|is_scalar|packed_rows|in_"
                r"|grid_bytes|query_counter)\b|def (union|intersection)\b",
                ("src/", "examples/"),
                (
                    "src/repro/analysis/explore.py",
                    "from ..containers.partitioned_vector import PartitionedVector\n",
                ),
            ),
        ),
    ),
    "test-only-surface": Rule(
        "No surface that only tests reach (every function, class and method under src/ "
        "is named in src/, examples/ or bench/ besides its own definition)",
        "delete it with its tests, or give KEPT a one-line reason (docs/api.md)",
        (
            Reached(
                "src/repro/",
                ("src/", "examples/", "bench/"),
                ("src/repro/analysis/deadlock.py", "def unreached_helper():\n    return None\n"),
            ),
        ),
    ),
    "runtime-footprint": Rule(
        "A process imports only the layers it runs (no re-exported gateway, no eager "
        "asyncio, no exhibit layer in the package facade)",
        "import the HTTP gateway from repro.service.gateway inside its caller, and let "
        "repro's subpackages load on import (docs/performance.md)",
        (
            Grep(
                r"^from \.gateway import|^from \.\.service\.gateway import|^import asyncio",
                ("src/",),
                ("src/repro/service/__init__.py", "from .gateway import JobGateway\n"),
                exempt_path=r"^src/repro/service/gateway\.py$",
            ),
            Grep(
                r"^from \. import .*\b(exhibits|reporting)\b",
                ("src/repro/__init__.py",),
                ("src/repro/__init__.py", "from . import exhibits\n"),
            ),
        ),
    ),
}


@pytest.mark.parametrize("name", RULES)
def test_the_rule_holds(name):
    rule, tree = RULES[name], Tree(ROOT)
    found = [hit for check in rule.checks for hit in check(tree)]
    assert not found, f"{rule.name}\n{rule.message}:\n" + "\n".join(found)


@pytest.mark.parametrize(
    "name, index",
    [(name, i) for name, rule in RULES.items() for i in range(len(rule.checks))],
)
def test_a_rule_catches_its_offending_snippet(name, index):
    check = RULES[name].checks[index]
    path, snippet = check.offending
    assert not check(Tree(ROOT))
    found = check(Tree(ROOT, {path: snippet}))
    assert found, f"{name} check {index} misses {snippet!r} in {path}"
