"""``run``: a distributed stencil end to end, optionally under a seeded
fault schedule with checkpoint restart and/or a LOW-priority parcel
storm with overload protection, verified bit-identical against a
fault-free virtual-clock reference run.

Exit codes: 0 ok, 1 bit-identity mismatch, 2 usage, 3 unexpected
application failure (structured summary on stderr).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ..config import VALID_BACKENDS, Config
from ..errors import ConfigError
from ..resilience import FaultInjector
from ..runtime import Runtime
from ..runtime import context as ctx
from ..runtime.perfcounters import query
from ..runtime.threads.hpx_thread import ThreadPriority
from ..stencil import DistributedHeat1D, Heat1DParams, analytic_heat_profile
from ..stencil.jacobi2d_dist import DistributedJacobi2D


def add_commands(sub: argparse._SubParsersAction) -> None:
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
        choices=VALID_BACKENDS,
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
    p_run.set_defaults(handler=_run)


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
    ctx.add_cost(cost)


def _launch_overload_storm(rt, factor: float) -> dict:
    """Chain LOW-priority parcel waves at the last locality.

    Waves ride on locality 0 as self-rescheduling tasks, so the storm
    interleaves with the stencil on the virtual clock.  Each wave
    samples the target's queue depth *before* submitting -- the bounded
    sequence these samples form is the graceful-degradation evidence.
    """
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


def _run(args: argparse.Namespace) -> int:
    """Faulted/overloaded run vs fault-free reference run; compare bits."""
    from ..observability.metrics import OVERLOAD_COUNTERS
    from ..observability.tracer import Tracer

    crashes: list[tuple[int, float]] = []
    for spec in args.crash:
        try:
            loc_text, time_text = spec.split("@", 1)
            loc, at = int(loc_text), float(time_text)
        except ValueError:
            print(f"malformed --crash {spec!r}; expected LOC@T", file=sys.stderr)
            return 2
        if not 1 <= loc < args.nodes:
            print(
                f"--crash {spec!r}: LOC must be in 1..{args.nodes - 1} with "
                f"--nodes {args.nodes} (locality 0 hosts AGAS and the main thread)",
                file=sys.stderr,
            )
            return 2
        crashes.append((loc, at))
    resilient = bool(crashes or args.drop_rate > 0)
    if args.backend != "multiprocess" and args.processes:
        print("--processes requires --backend multiprocess", file=sys.stderr)
        return 2
    # Progress breadcrumbs for the structured failure summary (exit 3):
    # the innermost run stashes its runtime and solver here so a crash
    # escaping every recovery layer can still be located.
    last_run: dict = {}

    def execute(faulted: bool) -> tuple[np.ndarray, Runtime, dict]:
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

