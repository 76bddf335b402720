"""Observation of the distributed demo: ``trace`` (virtual-time Gantt
chart, Chrome trace, metrics artifact) and ``analyze`` (the ParalleX
sanitizer suite: races, deadlocks, schedule exploration, lint)."""

from __future__ import annotations

import argparse
import os
from typing import Sequence

from .. import analysis
from ..config import VALID_SCHEDULERS, Config
from ..errors import DataRaceError, DeadlockError
from ..runtime import Runtime
from ..stencil import DistributedHeat1D, Heat1DParams, analytic_heat_profile


def add_commands(sub: argparse._SubParsersAction) -> None:
    p_trace = sub.add_parser(
        "trace", help="run the distributed demo and print a Gantt chart"
    )
    p_trace.add_argument("--nodes", type=int, default=2)
    p_trace.add_argument("--steps", type=int, default=6)
    p_trace.add_argument(
        "--export",
        metavar="FILE",
        help="also write Chrome trace-event JSON (Perfetto / chrome://tracing)",
    )
    p_trace.add_argument(
        "--metrics",
        metavar="FILE",
        help="also write a metrics artifact (counters + latency histograms)",
    )
    p_trace.set_defaults(handler=_trace)

    p_an = sub.add_parser(
        "analyze",
        help="ParalleX sanitizers: race/deadlock detection over the "
        "distributed demo, plus the repro-specific lint pass",
    )
    p_an.add_argument(
        "--races",
        action="store_true",
        help="happens-before race detection over the distributed demo",
    )
    p_an.add_argument(
        "--deadlocks",
        action="store_true",
        help="wait-for-graph deadlock detection over the distributed demo",
    )
    p_an.add_argument(
        "--lint",
        action="store_true",
        help="static lint pass (python -m repro.analysis.lint)",
    )
    p_an.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="paths for --lint (default: src)",
    )
    p_an.add_argument(
        "--json", action="store_true", help="machine-readable lint findings"
    )
    p_an.add_argument(
        "--fix",
        action="store_true",
        help="apply lint auto-fixes in place (PX601 unused imports)",
    )
    p_an.add_argument(
        "--select",
        default="",
        help="lint: comma-separated code prefixes to report (ruff-style)",
    )
    p_an.add_argument(
        "--ignore",
        default="",
        help="lint: comma-separated code prefixes to suppress",
    )
    p_an.add_argument("--nodes", type=int, default=2)
    p_an.add_argument("--steps", type=int, default=4)
    p_an.add_argument(
        "--scheduler",
        default="work-stealing",
        choices=VALID_SCHEDULERS,
        help="scheduler policy for the demo run",
    )
    p_an.add_argument(
        "--explore",
        action="store_true",
        help="systematically explore HPX-thread interleavings of the "
        "registered demo apps and check every terminal schedule against "
        "the invariant oracle (bit-identical results, counters, "
        "conservation, quiescence, no deadlock, race-free)",
    )
    p_an.add_argument(
        "--app",
        default="",
        help="explore a single registered app (default: every demo app)",
    )
    p_an.add_argument(
        "--strategy",
        default="dpor",
        choices=analysis.explore.STRATEGIES,
        help="schedule enumeration strategy (default: dpor)",
    )
    p_an.add_argument(
        "--budget",
        type=int,
        default=200,
        help="maximum schedules to execute per app (default: 200)",
    )
    p_an.add_argument(
        "--preemptions",
        type=int,
        default=2,
        help="preemption bound for --strategy pb (default: 2)",
    )
    p_an.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for --strategy random",
    )
    p_an.add_argument(
        "--replay",
        metavar="FILE",
        default="",
        help="re-execute a recorded violating schedule deterministically",
    )
    p_an.add_argument(
        "--replay-dir",
        metavar="DIR",
        default="",
        help="write a replay file per violating app into DIR",
    )
    p_an.add_argument(
        "--dot",
        metavar="FILE",
        default="",
        help="write the wait-for graph as Graphviz DOT (with --deadlocks: "
        "the demo run's graph; with --explore: the first deadlock found)",
    )
    p_an.set_defaults(handler=_analyze)


def distributed_demo(rt: Runtime) -> DistributedHeat1D:
    """The heat1d demo ``trace``, ``analyze`` and sampled ``counters``
    run: 64 points per locality, one virtual second per step."""
    nx = 64 * rt.n_localities
    solver = DistributedHeat1D(rt, nx, Heat1DParams(), cost_per_step=1.0)
    solver.initialize(analytic_heat_profile(nx))
    return solver


def _trace(args: argparse.Namespace) -> int:
    from ..observability import collect_metrics
    from ..observability.tracer import Tracer
    from ..reporting import write_metrics_json

    tracer = Tracer()
    with Runtime(
        machine="xeon-e5-2660v3", n_localities=args.nodes, workers_per_locality=2
    ) as rt:
        solver = distributed_demo(rt)
        with tracer.attach(rt):
            rt.run(lambda: solver.run(args.steps))
        footer = ""
        if args.export:
            tracer.export_chrome_trace(args.export)
            footer += (
                f"\nwrote Chrome trace-event JSON to {args.export} "
                "(open in https://ui.perfetto.dev or chrome://tracing)"
            )
        if args.metrics:
            collected = collect_metrics(rt, tracer)
            write_metrics_json(
                args.metrics,
                counters=collected["counters"],
                histograms=collected["histograms"],
                meta={"nodes": args.nodes, "steps": args.steps},
            )
            footer += f"\nwrote metrics artifact to {args.metrics}"
    header = (
        f"Distributed 1D stencil, {args.nodes} localities x 2 workers, "
        f"{args.steps} steps of 1 (virtual) second each.\n"
        "Solid lanes: halo exchange is fully hidden under compute.\n"
    )
    print(header + tracer.render_gantt(min_duration=0.5, exclude="hpx_main") + footer)
    return 0


def _analyze_dynamic(args: argparse.Namespace, races: bool, deadlocks: bool) -> int:
    """Run the distributed 1D demo under the dynamic sanitizers."""
    demo = f"{args.nodes}x2 heat1d demo, {args.scheduler} scheduler, {args.steps} steps"
    lines: list[str] = []
    status = 0
    config = Config(threads__scheduler=args.scheduler, runtime__quiescence="raise")
    with analysis.attach(
        races=races, deadlocks=deadlocks, report="collect"
    ) as sanitizers:
        try:
            with Runtime(
                machine="xeon-e5-2660v3",
                n_localities=args.nodes,
                workers_per_locality=2,
                config=config,
            ) as rt:
                solver = distributed_demo(rt)
                rt.run(lambda: solver.run(args.steps))
        except DeadlockError as exc:
            status = 1
            lines.append(f"DEADLOCK ({demo}):\n  {str(exc)}")
        else:
            if deadlocks:
                lines.append(f"deadlocks: none -- {demo} quiesced cleanly")
        if races and sanitizers.race is not None:
            found: Sequence[DataRaceError] = sanitizers.race.findings()
            if found:
                status = 1
                lines.append(f"races: {len(found)} unordered conflicting access(es)")
                for race in found:
                    lines.append("  " + str(race).replace("\n", "\n  "))
            else:
                lines.append(f"races: none -- {demo} is happens-before clean")
        if args.dot and sanitizers.deadlock is not None:
            graph = (
                sanitizers.deadlock.last_graph
                or sanitizers.deadlock.wait_graph()
            )
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(graph.to_dot())
            lines.append(f"wait-graph DOT written to {args.dot}")
    print("\n".join(lines))
    return status


def _analyze_explore(args: argparse.Namespace) -> int:
    """Schedule-space exploration over the registered demo apps."""
    names = [args.app] if args.app else list(analysis.explore.DEMO_APPS)
    status = 0
    dot_path = args.dot
    for name in names:
        app = analysis.explore.get_app(name)
        replay_path = None
        if args.replay_dir:
            os.makedirs(args.replay_dir, exist_ok=True)
            replay_path = os.path.join(
                args.replay_dir, name.replace("/", "_") + ".replay.json"
            )
        report = analysis.explore.explore(
            app,
            strategy=args.strategy,
            budget=args.budget,
            preemptions=args.preemptions,
            seed=args.seed,
            replay_path=replay_path,
        )
        print(report.summary())
        violation = report.violation
        if violation is not None:
            status = 1
            print("  " + violation.describe().replace("\n", "\n  "))
            if report.replay_path:
                print(f"  replay written to {report.replay_path}")
            if dot_path and violation.graph_dot:
                with open(dot_path, "w", encoding="utf-8") as fh:
                    fh.write(violation.graph_dot)
                print(f"  wait-graph DOT written to {dot_path}")
                dot_path = ""  # first deadlock wins
    return status


def _analyze(args: argparse.Namespace) -> int:
    if args.replay:
        # Re-execute a recorded violating schedule and verify it.
        outcome = analysis.explore.replay_file(args.replay)
        print(outcome.summary())
        return 0 if outcome.reproduced else 1
    want_races = args.races
    want_deadlocks = args.deadlocks
    want_lint = args.lint
    want_explore = args.explore
    if not (want_races or want_deadlocks or want_lint or want_explore):
        want_races = want_deadlocks = want_lint = True
    status = 0
    if want_races or want_deadlocks:
        status |= _analyze_dynamic(args, want_races, want_deadlocks)
    if want_explore:
        status |= _analyze_explore(args)
    if want_lint:
        from ..analysis import lint as lint_pass

        lint_argv = list(args.paths) or ["src"]
        if args.json:
            lint_argv.append("--json")
        if args.fix:
            lint_argv.append("--fix")
        if args.select:
            lint_argv.extend(["--select", args.select])
        if args.ignore:
            lint_argv.extend(["--ignore", args.ignore])
        status |= lint_pass.main(lint_argv)
    return status
