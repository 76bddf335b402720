"""Command-line interface: ``python -m repro <command>``.

Commands mirror the evaluation workflow:

* ``machines``                    -- list the calibrated machine models
* ``exhibits [NAME ...]``         -- render paper exhibits (default: all)
* ``stream --machine M``          -- STREAM COPY curve for one machine
* ``stencil1d --machine M``       -- Fig 3 rows for one machine
* ``stencil2d --machine M``       -- Fig 4-8 curve for one machine
* ``counters --machine M``        -- the machine's counter table; with
                                     ``--sample-interval DT`` instead
                                     sample *runtime* counters every DT
                                     virtual seconds over the
                                     distributed demo (CSV/JSON)
* ``trace``                       -- run the distributed demo and print a
                                     virtual-time Gantt chart (latency
                                     hiding, visibly); ``--export F``
                                     writes Chrome trace-event JSON for
                                     Perfetto, ``--metrics F`` a metrics
                                     artifact (counters + histograms)
* ``analyze``                     -- the ParalleX sanitizer suite:
                                     ``--races`` / ``--deadlocks`` run the
                                     distributed demo under the dynamic
                                     detectors, ``--lint`` the static
                                     pass (default: all three)
* ``run``                         -- run a distributed stencil end-to-end,
                                     optionally under a seeded fault
                                     schedule (``--crash LOC@T``,
                                     ``--drop-rate``) with checkpoint
                                     restart (``--checkpoint-every K``)
                                     and/or a LOW-priority parcel storm
                                     with overload protection enabled
                                     (``--overload FACTOR``); verifies
                                     the result is bit-identical to a
                                     fault-free run and prints the
                                     resilience/overload counters.
                                     ``--backend multiprocess
                                     [--processes N]`` runs the primary
                                     execution on real OS processes and
                                     checks it bit-identical against the
                                     virtual-clock reference.
                                     Exit codes: 0 ok, 1 bit-identity
                                     mismatch, 2 usage, 3 unexpected
                                     application failure (structured
                                     summary on stderr)
* ``jobs``                        -- the durable multi-tenant job service
                                     (see ``docs/job-service.md``):
                                     ``submit``/``status``/``cancel``/
                                     ``list``/``counters`` manage jobs in
                                     a service directory, ``work`` runs a
                                     worker loop, ``serve`` the asyncio
                                     HTTP gateway, ``chaos`` the kill -9
                                     crash-restart storm CI runs nightly
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from . import exhibits
from .hardware.registry import machine, machine_names
from .perf.cost import stencil1d_time, stencil2d_glups
from .perf.stream import stream_model
from .reporting import Series, format_figure, format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Performance Evaluation of ParalleX "
        "Execution model on Arm-based Platforms' (CLUSTER 2020).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("machines", help="list the calibrated machine models")

    p_ex = sub.add_parser("exhibits", help="render paper exhibits")
    p_ex.add_argument(
        "names",
        nargs="*",
        choices=[[], *exhibits.EXHIBITS],  # empty means all
        help="which exhibits (default: all, in paper order)",
    )

    def machine_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--machine",
            required=True,
            choices=machine_names(),
            help="machine model name",
        )

    p_stream = sub.add_parser("stream", help="STREAM COPY curve")
    machine_arg(p_stream)
    p_stream.add_argument("--pinning", default="compact", choices=("compact", "scatter"))

    p_1d = sub.add_parser("stencil1d", help="1D distributed stencil times")
    machine_arg(p_1d)
    p_1d.add_argument("--nodes", type=int, nargs="+", default=[1, 2, 4, 8])
    p_1d.add_argument("--weak", action="store_true", help="weak scaling")

    p_2d = sub.add_parser("stencil2d", help="2D stencil GLUP/s curve")
    machine_arg(p_2d)
    p_2d.add_argument("--dtype", default="float32", choices=("float32", "float64"))
    p_2d.add_argument("--mode", default="simd", choices=("auto", "simd"))

    p_cnt = sub.add_parser(
        "counters",
        help="hardware-counter table, or runtime-counter sampling "
        "with --sample-interval",
    )
    machine_arg(p_cnt)
    p_cnt.add_argument(
        "--sample-interval",
        type=float,
        metavar="DT",
        help="sample runtime counters every DT virtual seconds over the "
        "distributed 1D stencil demo instead of printing the hardware table",
    )
    p_cnt.add_argument("--nodes", type=int, default=2)
    p_cnt.add_argument("--steps", type=int, default=6)
    p_cnt.add_argument(
        "--paths",
        nargs="+",
        metavar="PATH",
        help="counter paths to sample (default: a standard set)",
    )
    p_cnt.add_argument("--format", default="csv", choices=("csv", "json"))
    p_cnt.add_argument(
        "--output", metavar="FILE", help="write the series here instead of stdout"
    )

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
        choices=("work-stealing", "static", "fifo"),
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
        choices=("dpor", "exhaustive", "pb", "random"),
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

    p_run = sub.add_parser(
        "run",
        help="run a distributed stencil under a seeded fault schedule with "
        "checkpoint restart, and verify bit-identical recovery",
    )
    p_run.add_argument(
        "--app",
        default="heat1d",
        choices=("heat1d", "jacobi2d"),
        help="which distributed stencil to run",
    )
    p_run.add_argument("--nodes", type=int, default=4)
    p_run.add_argument("--steps", type=int, default=40)
    p_run.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="K",
        help="coordinated checkpoint epoch length in steps "
        "(0: checkpoint only when the fault schedule demands one)",
    )
    p_run.add_argument(
        "--crash",
        action="append",
        default=[],
        metavar="LOC@T",
        help="permanently crash locality LOC at virtual time T (repeatable)",
    )
    p_run.add_argument("--seed", type=int, default=0, help="fault-injection seed")
    p_run.add_argument(
        "--drop-rate",
        type=float,
        default=0.0,
        help="additionally drop this fraction of parcels (transient faults)",
    )
    p_run.add_argument(
        "--backend",
        default="virtual",
        choices=("virtual", "multiprocess"),
        help="execution backend for the primary run; the reference run "
        "always uses the virtual-clock backend, so a multiprocess run is "
        "verified bit-identical *across backends*",
    )
    p_run.add_argument(
        "--processes",
        type=int,
        default=0,
        metavar="N",
        help="OS process count for --backend multiprocess "
        "(0 or omitted: one process per locality)",
    )
    p_run.add_argument(
        "--overload",
        type=float,
        default=0.0,
        metavar="FACTOR",
        help="drive a FACTOR-x LOW-priority parcel storm (ingress vs drain "
        "rate) at the last locality with overload protection enabled; the "
        "run must stay depth/latency-bounded and finish bit-identically",
    )

    p_jobs = sub.add_parser(
        "jobs",
        help="durable multi-tenant job service: submit/status/cancel/list, "
        "worker loop, HTTP gateway, chaos storm (docs/job-service.md)",
    )
    jobs_sub = p_jobs.add_subparsers(dest="jobs_command", required=True)

    def root_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--root",
            required=True,
            metavar="DIR",
            help="service directory (journal + per-job checkpoint trails); "
            "single-writer: one service process owns it at a time",
        )

    p_submit = jobs_sub.add_parser("submit", help="submit one job (idempotent)")
    root_arg(p_submit)
    p_submit.add_argument("--tenant", required=True)
    p_submit.add_argument(
        "--kind", default="stencil1d", choices=("stencil1d", "faulty")
    )
    p_submit.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="job parameter (repeatable; values parsed as JSON scalars)",
    )
    p_submit.add_argument(
        "--dedupe-key",
        metavar="KEY",
        help="idempotency key: resubmitting with a used key returns the "
        "original job instead of creating a new one",
    )
    p_submit.add_argument("--max-attempts", type=int, metavar="N")
    p_submit.add_argument("--json", action="store_true")

    p_status = jobs_sub.add_parser("status", help="show one job")
    root_arg(p_status)
    p_status.add_argument("job_id")

    p_cancel = jobs_sub.add_parser("cancel", help="cancel a non-terminal job")
    root_arg(p_cancel)
    p_cancel.add_argument("job_id")

    p_list = jobs_sub.add_parser("list", help="list jobs")
    root_arg(p_list)
    p_list.add_argument("--tenant")
    p_list.add_argument(
        "--state",
        choices=("pending", "claimed", "running", "done", "failed", "cancelled"),
    )
    p_list.add_argument("--json", action="store_true")

    p_jcnt = jobs_sub.add_parser(
        "counters", help="per-tenant /jobs{tenant} service counters"
    )
    root_arg(p_jcnt)

    p_work = jobs_sub.add_parser(
        "work", help="run a worker loop over the service directory"
    )
    root_arg(p_work)
    p_work.add_argument("--worker", default="worker-0", metavar="NAME")
    p_work.add_argument(
        "--poll",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="idle sleep while jobs wait out retry backoff",
    )
    p_work.add_argument("--max-jobs", type=int, metavar="N")
    p_work.add_argument(
        "--exit-when-idle",
        action="store_true",
        help="exit 0 once every job in the store is terminal",
    )
    p_work.add_argument(
        "--epoch-steps",
        type=int,
        default=10,
        metavar="K",
        help="checkpoint the solution every K stencil steps",
    )

    p_serve = jobs_sub.add_parser(
        "serve", help="asyncio HTTP gateway over the service directory"
    )
    root_arg(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765)

    p_chaos = jobs_sub.add_parser(
        "chaos",
        help="kill -9 crash-restart storm: submit a multi-tenant job storm, "
        "SIGKILL workers at seeded-random points, drain, and audit "
        "exactly-once terminal states and bit-identical results",
    )
    root_arg(p_chaos)
    p_chaos.add_argument("--tenants", type=int, default=3)
    p_chaos.add_argument("--jobs-per-tenant", type=int, default=3)
    p_chaos.add_argument("--nx", type=int, default=32)
    p_chaos.add_argument("--steps", type=int, default=30)
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--max-kills", type=int, default=4)
    p_chaos.add_argument("--json", action="store_true")

    return parser


def _cmd_machines() -> str:
    rows = []
    for name in machine_names():
        m = machine(name)
        rows.append(
            [
                name,
                m.spec.name,
                m.spec.cores_per_node,
                m.spec.numa_domains,
                f"{m.spec.peak_gflops:.0f}",
                f"{m.memory.aggregate_bandwidth(m.spec.cores_per_node):.0f}",
            ]
        )
    return format_table(
        ["id", "model", "cores", "NUMA", "GFLOP/s", "STREAM GB/s"], rows
    )


def _cmd_exhibits(names: Sequence[str]) -> str:
    parts = [exhibits.EXHIBITS[name]() for name in names or exhibits.EXHIBITS]
    return ("\n\n" + "=" * 78 + "\n\n").join(parts)


def _cmd_stream(machine_name: str, pinning: str) -> str:
    m = machine(machine_name)
    series = Series(m.spec.name)
    for cores in range(1, m.spec.cores_per_node + 1):
        series.add(cores, stream_model(m, cores, pinning=pinning).bandwidth_gbs)
    return format_figure(
        f"STREAM COPY, {m.spec.name} ({pinning} pinning)",
        [series],
        xlabel="cores",
        ylabel="GB/s",
        y_format="{:.1f}",
    )


def _cmd_stencil1d(machine_name: str, nodes: Sequence[int], weak: bool) -> str:
    m = machine(machine_name)
    series = Series(m.spec.name)
    for n in nodes:
        if weak:
            series.add(n, stencil1d_time(m, n, points_per_node=480_000_000))
        else:
            series.add(n, stencil1d_time(m, n))
    label = "weak (480e6 pts/node)" if weak else "strong (1.2e9 pts)"
    return format_figure(
        f"1D stencil {label}, {m.spec.name}",
        [series],
        xlabel="nodes",
        ylabel="seconds",
        y_format="{:.2f}",
    )


def _cmd_stencil2d(machine_name: str, dtype: str, mode: str) -> str:
    m = machine(machine_name)
    np_dtype = np.float32 if dtype == "float32" else np.float64
    series = Series(f"{dtype}/{mode}")
    for cores in exhibits.core_grid(m.spec.cores_per_node):
        series.add(cores, stencil2d_glups(m, np_dtype, mode, cores))
    return format_figure(
        f"2D stencil, {m.spec.name}",
        [series],
        xlabel="cores",
        ylabel="GLUP/s",
        y_format="{:.2f}",
    )


def _distributed_demo(rt: "Runtime") -> "DistributedHeat1D":
    """The heat1d demo ``trace``, ``analyze`` and sampled ``counters``
    run: 64 points per locality, one virtual second per step."""
    from .stencil import DistributedHeat1D, Heat1DParams, analytic_heat_profile

    nx = 64 * rt.n_localities
    solver = DistributedHeat1D(rt, nx, Heat1DParams(), cost_per_step=1.0)
    solver.initialize(analytic_heat_profile(nx))
    return solver


def _cmd_trace(
    n_nodes: int,
    steps: int,
    export: str | None = None,
    metrics: str | None = None,
) -> str:
    from .observability import collect_metrics
    from .reporting import write_metrics_json
    from .runtime import Runtime
    from .observability.tracer import Tracer

    tracer = Tracer()
    with Runtime(
        machine="xeon-e5-2660v3", n_localities=n_nodes, workers_per_locality=2
    ) as rt:
        solver = _distributed_demo(rt)
        with tracer.attach(rt):
            rt.run(lambda: solver.run(steps))
        footer = ""
        if export:
            tracer.export_chrome_trace(export)
            footer += (
                f"\nwrote Chrome trace-event JSON to {export} "
                "(open in https://ui.perfetto.dev or chrome://tracing)"
            )
        if metrics:
            collected = collect_metrics(rt, tracer)
            write_metrics_json(
                metrics,
                counters=collected["counters"],
                histograms=collected["histograms"],
                meta={"nodes": n_nodes, "steps": steps},
            )
            footer += f"\nwrote metrics artifact to {metrics}"
    header = (
        f"Distributed 1D stencil, {n_nodes} localities x 2 workers, "
        f"{steps} steps of 1 (virtual) second each.\n"
        "Solid lanes: halo exchange is fully hidden under compute.\n"
    )
    return header + tracer.render_gantt(min_duration=0.5, exclude="hpx_main") + footer


def _cmd_analyze_dynamic(
    races: bool,
    deadlocks: bool,
    n_nodes: int,
    steps: int,
    scheduler: str,
    dot_path: str = "",
) -> tuple[str, int]:
    """Run the distributed 1D demo under the dynamic sanitizers."""
    from . import analysis
    from .config import Config
    from .errors import DataRaceError, DeadlockError
    from .runtime import Runtime

    demo = f"{n_nodes}x2 heat1d demo, {scheduler} scheduler, {steps} steps"
    lines: list[str] = []
    status = 0
    config = Config(threads__scheduler=scheduler, runtime__quiescence="raise")
    with analysis.attach(
        races=races, deadlocks=deadlocks, report="collect"
    ) as sanitizers:
        try:
            with Runtime(
                machine="xeon-e5-2660v3",
                n_localities=n_nodes,
                workers_per_locality=2,
                config=config,
            ) as rt:
                solver = _distributed_demo(rt)
                rt.run(lambda: solver.run(steps))
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
        if dot_path and sanitizers.deadlock is not None:
            graph = (
                sanitizers.deadlock.last_graph
                or sanitizers.deadlock.wait_graph()
            )
            with open(dot_path, "w", encoding="utf-8") as fh:
                fh.write(graph.to_dot())
            lines.append(f"wait-graph DOT written to {dot_path}")
    return "\n".join(lines), status


def _cmd_analyze_explore(args: argparse.Namespace) -> int:
    """Schedule-space exploration over the registered demo apps."""
    import os

    from .analysis import explore as explore_mod

    names = [args.app] if args.app else list(explore_mod.DEMO_APPS)
    status = 0
    dot_path = args.dot
    for name in names:
        app = explore_mod.get_app(name)
        replay_path = None
        if args.replay_dir:
            os.makedirs(args.replay_dir, exist_ok=True)
            replay_path = os.path.join(
                args.replay_dir, name.replace("/", "_") + ".replay.json"
            )
        report = explore_mod.explore(
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


def _cmd_analyze_replay(path: str) -> int:
    """Re-execute a recorded violating schedule and verify it."""
    from .analysis import explore as explore_mod

    outcome = explore_mod.replay_file(path)
    print(outcome.summary())
    return 0 if outcome.reproduced else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.replay:
        return _cmd_analyze_replay(args.replay)
    want_races = args.races
    want_deadlocks = args.deadlocks
    want_lint = args.lint
    want_explore = args.explore
    if not (want_races or want_deadlocks or want_lint or want_explore):
        want_races = want_deadlocks = want_lint = True
    status = 0
    if want_races or want_deadlocks:
        text, rc = _cmd_analyze_dynamic(
            want_races,
            want_deadlocks,
            args.nodes,
            args.steps,
            args.scheduler,
            dot_path=args.dot if want_deadlocks else "",
        )
        print(text)
        status |= rc
    if want_explore:
        status |= _cmd_analyze_explore(args)
    if want_lint:
        from .analysis import lint as lint_pass

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


#: Parcel-storm shape for ``repro run --overload FACTOR``.  With 2
#: workers of drain capacity ``_STORM_WAVE_DT_S / _STORM_SINK_COST_S``
#: tasks each per wave, the target locality drains 4 sink tasks per
#: wave; a wave submits ``4 * FACTOR``, so FACTOR is literally the
#: ingress-to-drain ratio.
_STORM_WAVES = 20
_STORM_SINK_COST_S = 1e-3
_STORM_WAVE_DT_S = 2e-3


def _overload_sink(cost: float) -> None:
    """Storm payload: pure virtual compute at the target locality."""
    from .runtime import context as ctx

    ctx.add_cost(cost)


def _launch_overload_storm(rt, factor: float) -> dict:
    """Chain LOW-priority parcel waves at the last locality.

    Waves ride on locality 0 as self-rescheduling tasks, so the storm
    interleaves with the stencil on the virtual clock.  Each wave
    samples the target's queue depth *before* submitting -- the bounded
    sequence these samples form is the graceful-degradation evidence.
    """
    from .runtime.threads.hpx_thread import ThreadPriority

    target = rt.n_localities - 1
    pool0 = rt.localities[0].pool
    target_pool = rt.localities[target].pool
    per_wave = max(1, int(4 * factor))
    depth_samples: list[int] = []

    def wave(index: int) -> None:
        # Waves form a chain (each submits the next), so appends are
        # totally ordered by construction; no concurrent writer exists.
        depth_samples.append(target_pool.pending())  # repro-lint: disable=PX811
        for _ in range(per_wave):
            rt.apply_at(
                target,
                _overload_sink,
                _STORM_SINK_COST_S,
                priority=ThreadPriority.LOW,
            )
        if index + 1 < _STORM_WAVES:
            pool0.submit(
                wave,
                index + 1,
                ready_time=pool0.now + _STORM_WAVE_DT_S,
                description=f"storm-wave#{index + 1}",
            )

    pool0.submit(wave, 0, description="storm-wave#0")
    return {
        "submitted": per_wave * _STORM_WAVES,
        "depth_samples": depth_samples,
        "target_pool": target_pool,
    }


#: Counters printed after a ``repro run`` (resilience at a glance).
_RUN_COUNTER_PATHS = (
    "/checkpoints{total}/count/saved",
    "/checkpoints{total}/count/restored",
    "/checkpoints{total}/count/fallbacks",
    "/checkpoints{total}/count/corrupt-skipped",
    "/checkpoints{total}/data/saved",
    "/checkpoints{total}/time/save",
    "/checkpoints{total}/time/restore",
    "/localities{total}/count/failed",
    "/localities{total}/count/decommissioned",
    "/parcels{total}/count/dropped",
    "/parcels{total}/count/retried",
    "/parcels{total}/count/dead-lettered",
    "/runtime/uptime",
)


def _run_failure_summary(
    args: argparse.Namespace,
    phase: str,
    exc: Exception,
    crashes: list,
    last_run: dict,
) -> str:
    """Structured summary for an *unexpected* application failure.

    A fault schedule is supposed to be survivable -- the recovery layers
    re-drive dead-lettered work and restart from checkpoints -- so an
    exception escaping ``execute`` is a bug, not an outcome.  It exits
    with code 3 (distinct from 1 = bit-identity mismatch, 2 = usage) and
    reports where the run was when it died instead of a bare traceback.
    """
    lines = [
        "repro run: UNEXPECTED FAILURE (exit 3)",
        f"  phase:              {phase}",
        f"  app:                {args.app}, {args.nodes} localities x 2 workers, "
        f"{args.steps} steps, seed={args.seed}",
        f"  error:              {type(exc).__name__}: {exc}",
    ]
    if crashes:
        lines.append(
            "  crash schedule:     "
            + ", ".join(f"locality {loc} at t={at:g}" for loc, at in crashes)
        )
    if args.drop_rate > 0:
        lines.append(f"  drop rate:          {args.drop_rate:g}")
    solver = last_run.get("solver")
    parts = getattr(solver, "_parts", None) if solver is not None else None
    if parts:
        progress = [part.steps_done for part in parts]
        lines.append(
            f"  partition progress: min {min(progress)} / max {max(progress)} "
            f"of {args.steps} steps"
        )
        if args.checkpoint_every > 0:
            epoch = (min(progress) // args.checkpoint_every) * args.checkpoint_every
            lines.append(
                f"  last checkpoint:    epoch <= step {epoch} "
                f"(epoch length {args.checkpoint_every})"
            )
        else:
            lines.append("  last checkpoint:    none (checkpointing disabled)")
    rt = last_run.get("rt")
    if rt is not None:
        lines.append(
            f"  checkpoints saved:  {rt.checkpoints_saved}, "
            f"restored: {rt.checkpoints_restored}"
        )
        if rt.decommissioned:
            lines.append(
                f"  decommissioned:     localities {sorted(rt.decommissioned)}"
            )
        suspected = sorted(rt.parcelport.suspected_dead)
        if suspected:
            lines.append(f"  suspected dead:     localities {suspected}")
    return "\n".join(lines)


def _cmd_run(args: argparse.Namespace) -> int:
    """Faulted/overloaded run vs fault-free reference run; compare bits."""
    from .config import Config
    from .errors import ConfigError
    from .observability.metrics import OVERLOAD_COUNTERS
    from .resilience import FaultInjector
    from .runtime import Runtime
    from .runtime.perfcounters import query
    from .observability.tracer import Tracer
    from .stencil import DistributedHeat1D, Heat1DParams, analytic_heat_profile
    from .stencil.jacobi2d_dist import DistributedJacobi2D

    crashes: list[tuple[int, float]] = []
    for spec in args.crash:
        try:
            loc_text, time_text = spec.split("@", 1)
            crashes.append((int(loc_text), float(time_text)))
        except ValueError:
            print(f"malformed --crash {spec!r}; expected LOC@T", file=sys.stderr)
            return 2
    resilient = bool(crashes or args.drop_rate > 0)
    if args.backend != "multiprocess" and args.processes:
        print("--processes requires --backend multiprocess", file=sys.stderr)
        return 2
    # Progress breadcrumbs for the structured failure summary (exit 3):
    # the innermost run stashes its runtime and solver here so a crash
    # escaping every recovery layer can still be located.
    last_run: dict = {}

    def execute(faulted: bool) -> tuple[np.ndarray, "Runtime", dict]:
        injector = None
        if faulted and resilient:
            injector = FaultInjector(seed=args.seed, drop_rate=args.drop_rate)
            for loc, at in crashes:
                injector.fail_locality(loc, at=at, permanent=True)
        overrides: dict = {}
        if faulted and args.overload > 0:
            # The overloaded run gets the full protection stack; the
            # reference run keeps defaults so "bit-identical" proves the
            # storm + admission decisions never touch the answer.
            overrides.update(overload__enabled=True, parcel__retry_jitter=0.25)
        if faulted and args.backend == "multiprocess":
            # Only the primary run crosses process boundaries; the
            # reference stays on the virtual-clock backend, so the final
            # comparison is a cross-backend bit-identity check.  With --crash,
            # --drop-rate or --overload the Runtime refuses: exit 2 below.
            overrides.update(
                runtime__backend="multiprocess",
                runtime__processes=args.processes,
            )
        with Runtime(
            n_localities=args.nodes,
            workers_per_locality=2,
            config=Config(**overrides),
            fault_injector=injector,
        ) as rt:
            last_run["rt"] = rt
            if args.app == "heat1d":
                nx = 16 * args.nodes
                solver = DistributedHeat1D(
                    rt, nx, Heat1DParams(), cost_per_step=1e-3
                )
                solver.initialize(analytic_heat_profile(nx))
            else:
                ny = 4 * args.nodes + 2
                solver = DistributedJacobi2D(rt, ny, 16, cost_per_step=1e-3)
                rng = np.random.default_rng(args.seed)
                solver.initialize(rng.random((ny, 16)))
            last_run["solver"] = solver
            storm: dict = {}
            if faulted and args.overload > 0:
                storm = _launch_overload_storm(rt, args.overload)
            if faulted and resilient:
                job = lambda: solver.run_resilient(  # noqa: E731
                    args.steps, checkpoint_every=args.checkpoint_every
                )
            else:
                job = lambda: solver.run(args.steps)  # noqa: E731
            if storm:
                tracer = Tracer()
                with tracer.attach(rt):
                    out = rt.run(job)
                storm["tracer"] = tracer
            else:
                out = rt.run(job)
            return out, rt, storm

    phase = "faulted run"
    try:
        faulted_out, faulted_rt, storm = execute(faulted=True)
        phase = "fault-free reference run"
        reference_out, _, _ = execute(faulted=False)
    except ConfigError as exc:
        print(f"repro run: configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - reported structurally, exit 3
        print(
            _run_failure_summary(args, phase, exc, crashes, last_run),
            file=sys.stderr,
        )
        return 3
    identical = bool(np.array_equal(faulted_out, reference_out))

    lines = [
        f"{args.app}: {args.nodes} localities x 2 workers, {args.steps} steps, "
        f"checkpoint_every={args.checkpoint_every}, seed={args.seed}, "
        f"backend={args.backend}",
    ]
    if crashes:
        lines.append(
            "crash schedule: "
            + ", ".join(f"locality {loc} at t={at:g}" for loc, at in crashes)
        )
    if args.drop_rate > 0:
        lines.append(f"drop rate: {args.drop_rate:g}")
    counter_paths = list(_RUN_COUNTER_PATHS)
    if args.backend == "multiprocess":
        counter_paths.extend(
            (
                "/backend{total}/count/processes",
                "/backend{total}/count/forwarded",
                "/backend{total}/count/relayed",
                "/backend{total}/count/replies-sent",
                "/backend{total}/count/remote-tasks",
                "/backend{total}/data/sent",
            )
        )
    if storm:
        counter_paths.extend(OVERLOAD_COUNTERS)
    for path in counter_paths:
        lines.append(f"{path:<46} {query(faulted_rt, path):g}")
    if storm:
        depths = storm["depth_samples"]
        latencies = sorted(storm["tracer"].parcel_latencies().values())
        p99 = latencies[int(0.99 * (len(latencies) - 1))] if latencies else 0.0
        lines.append(
            f"overload storm: {args.overload:g}x ingress, "
            f"{storm['submitted']} LOW parcels over {_STORM_WAVES} waves"
        )
        lines.append(
            f"target queue depth: max sampled {max(depths, default=0)}, "
            f"peak {storm['target_pool'].peak_pending}"
        )
        lines.append(f"parcel latency p99: {p99:.3g}s virtual")
    lines.append(f"bit-identical with fault-free run: {identical}")
    print("\n".join(lines))
    return 0 if identical else 1


#: Default paths for ``counters --sample-interval``.
_SAMPLE_PATHS = (
    "/threads{total}/count/cumulative",
    "/threads{total}/queue/length",
    "/threads{total}/idle-rate",
    "/parcels{total}/count/sent",
)


def _cmd_counters_sampled(
    machine_name: str,
    n_nodes: int,
    steps: int,
    interval: float,
    paths: Sequence[str] | None,
    fmt: str,
    output: str | None,
) -> str:
    from .observability import sample_counters
    from .runtime import Runtime

    with Runtime(
        machine=machine_name, n_localities=n_nodes, workers_per_locality=2
    ) as rt:
        solver = _distributed_demo(rt)
        series = sample_counters(
            rt,
            lambda: solver.run(steps),
            paths=list(paths) if paths else list(_SAMPLE_PATHS),
            interval=interval,
        )
    text = series.to_csv() if fmt == "csv" else series.to_json(indent=2)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        return (
            f"wrote {len(series)} samples x {len(series.paths)} counters "
            f"({fmt}) to {output}"
        )
    return text.rstrip("\n")


def _parse_job_params(pairs: Sequence[str]) -> dict:
    """``KEY=VALUE`` pairs -> params dict; values parse as JSON scalars."""
    import json as json_mod

    params: dict = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"malformed --param {pair!r}; expected KEY=VALUE")
        try:
            params[key] = json_mod.loads(value)
        except json_mod.JSONDecodeError:
            params[key] = value  # bare strings are fine unquoted
    return params


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json as json_mod
    import time

    from .errors import JobShedError, JobStateError, UnknownJobError
    from .service import JobService, ServicePolicy

    if args.jobs_command == "chaos":
        from .service.chaos import run_storm

        report = run_storm(
            args.root,
            tenants=args.tenants,
            jobs_per_tenant=args.jobs_per_tenant,
            nx=args.nx,
            steps=args.steps,
            seed=args.seed,
            max_kills=args.max_kills,
        )
        if args.json:
            print(json_mod.dumps(report, indent=2))
        else:
            print(
                f"chaos storm: {report['accepted']} jobs accepted, "
                f"{report['kills']} worker kill(s), "
                f"{report['journal_records']} journal records"
                + (" (torn tail tolerated)" if report["torn_tail_seen"] else "")
            )
            print(f"terminal states: {report['states']}")
            for violation in report["violations"]:
                print(f"VIOLATION: {violation}", file=sys.stderr)
        return 0 if not report["violations"] else 1

    if args.jobs_command == "work":
        policy = ServicePolicy(epoch_steps=args.epoch_steps)
        with JobService(args.root, policy=policy) as service:
            settled = 0
            while args.max_jobs is None or settled < args.max_jobs:
                if service.run_one(args.worker) is not None:
                    settled += 1
                    continue
                if not service.open_jobs():
                    if args.exit_when_idle:
                        break
                # Open jobs exist but none is claimable right now
                # (retry backoff / foreign leases); poll on real time --
                # the worker loop is the process boundary.
                time.sleep(args.poll)  # repro-lint: disable=PX101
            print(f"worker {args.worker}: settled {settled} job(s)")
        return 0

    if args.jobs_command == "serve":
        import asyncio

        from .service.gateway import JobGateway

        with JobService(args.root) as service:
            gateway = JobGateway(service, host=args.host, port=args.port)

            async def _serve() -> None:
                await gateway.start()
                print(f"job gateway listening on {gateway.host}:{gateway.port}")
                await gateway.serve_forever()

            try:
                asyncio.run(_serve())
            except KeyboardInterrupt:
                print("gateway stopped")
        return 0

    with JobService(args.root) as service:
        if args.jobs_command == "submit":
            try:
                params = _parse_job_params(args.param)
            except ValueError as exc:
                print(str(exc), file=sys.stderr)
                return 2
            try:
                job, created = service.submit(
                    args.tenant,
                    args.kind,
                    params,
                    dedupe_key=args.dedupe_key,
                    max_attempts=args.max_attempts,
                )
            except JobShedError as exc:
                print(
                    f"submission shed: {exc} (retry after {exc.retry_after:g}s)",
                    file=sys.stderr,
                )
                return 1
            if args.json:
                print(json_mod.dumps({"job": job.describe(), "created": created}))
            else:
                verb = "created" if created else "deduplicated to existing"
                print(f"{verb} {job.job_id} ({job.state})")
            return 0
        if args.jobs_command == "status":
            try:
                print(json_mod.dumps(service.status(args.job_id), indent=2))
            except UnknownJobError as exc:
                print(str(exc), file=sys.stderr)
                return 1
            return 0
        if args.jobs_command == "cancel":
            try:
                job = service.cancel(args.job_id)
            except (UnknownJobError, JobStateError) as exc:
                print(str(exc), file=sys.stderr)
                return 1
            print(f"cancelled {job.job_id}")
            return 0
        if args.jobs_command == "list":
            jobs = service.list_jobs(tenant=args.tenant, state=args.state)
            if args.json:
                print(json_mod.dumps([job.describe() for job in jobs], indent=2))
            else:
                rows = [
                    [
                        job.job_id,
                        job.tenant,
                        job.kind,
                        str(job.state),
                        f"{job.attempts}/{job.max_attempts}",
                        (job.failure or "")[:40],
                    ]
                    for job in jobs
                ]
                print(
                    format_table(
                        ["job", "tenant", "kind", "state", "attempts", "failure"],
                        rows,
                    )
                )
            return 0
        if args.jobs_command == "counters":
            for path, value in service.counters().items():
                print(f"{path:<46} {value}")
            return 0
    return 2  # pragma: no cover - argparse guards


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "machines":
        print(_cmd_machines())
    elif args.command == "exhibits":
        print(_cmd_exhibits(args.names))
    elif args.command == "stream":
        print(_cmd_stream(args.machine, args.pinning))
    elif args.command == "stencil1d":
        print(_cmd_stencil1d(args.machine, args.nodes, args.weak))
    elif args.command == "stencil2d":
        print(_cmd_stencil2d(args.machine, args.dtype, args.mode))
    elif args.command == "counters":
        if args.sample_interval is not None:
            print(
                _cmd_counters_sampled(
                    args.machine,
                    args.nodes,
                    args.steps,
                    args.sample_interval,
                    args.paths,
                    args.format,
                    args.output,
                )
            )
        else:
            table, _ = exhibits.COUNTER_TABLES[args.machine]
            print(exhibits.EXHIBITS[table]())
    elif args.command == "trace":
        print(_cmd_trace(args.nodes, args.steps, args.export, args.metrics))
    elif args.command == "analyze":
        return _cmd_analyze(args)
    elif args.command == "run":
        return _cmd_run(args)
    elif args.command == "jobs":
        return _cmd_jobs(args)
    else:  # pragma: no cover - argparse guards
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
