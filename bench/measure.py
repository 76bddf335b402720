"""One workload in one fresh process: set up, time rounds, check, report.

``run.py`` starts this file as a subprocess with a pinned environment
and reads the one JSON line it prints.  With ``--trace 0`` the timed
window is ``--seconds`` of untraced rounds and the record carries the
end-to-end metrics.  With ``--trace 1`` every untraced round is followed
by a traced one (the shims of ``tracing.py`` go in and out again), so
host drift hits both kinds alike; the record carries the per-layer
metrics, and the gap between the two kinds is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter, process_time

_HEAVY_IMPORTS_FROM = perf_counter()

import numpy as np  # noqa: E402 - timed, like the three below

from run import quartiles  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Seconds spent importing NumPy, ``repro`` and the benchmark's own files.
IMPORT_S = perf_counter() - _HEAVY_IMPORTS_FROM

#: Times a workload is set up per run, in this one process.
SETUP_REPEATS = 9

#: Bytes one double-precision site update moves with three rows in
#: cache (the paper's arithmetic intensity of 1/24 LUP/B).
BYTES_PER_SITE_UPDATE = 24

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def tail(values: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    for pct in (99, 95, 90, 75):
        if len(ordered) * (100 - pct) >= 1000:
            return ordered[len(ordered) * pct // 100], pct
    return statistics.median(ordered), 50


def calibrate(smoke: bool) -> float:
    """Wall ms of a fixed Python+NumPy spin (about 0.2 s on a calm
    2-vCPU box): a sentinel for how contended the host was."""
    a = np.arange(4096, dtype=np.float64)
    acc = 0.0
    start = perf_counter()
    for i in range(10_000 if smoke else 200_000):
        acc += float(a.dot(a)) * 1e-12 + i % 7
    return (perf_counter() - start) * 1e3


def children_cpu_s(pids: list[int]) -> float:
    """user+system CPU of live children, from /proc (10 ms ticks)."""
    total = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return total


def lower_decile(values: list[float]) -> float:
    """The 10th percentile, interpolated between samples (never below
    the smallest)."""
    return statistics.quantiles(values, n=10, method="inclusive")[0]


class Phase:
    """The rounds of one kind (untraced or traced) in the timed window."""

    def __init__(self) -> None:
        #: Per round, its segments as (wall, cpu) seconds.
        self.segments: list[list[tuple[float, float]]] = []
        self.round_walls: list[float] = []
        self.round_cpus: list[float] = []
        self.op_walls: list[float] = []
        self.failed = 0
        #: CPU seconds of the worker processes, per round of the window.
        self.children_cpu_per_round = 0.0

    def run_round(self, wl, tracer: Tracer) -> None:
        cpu0, t0 = process_time(), perf_counter()
        with tracer.span("round"):
            segments, op_walls, failed = wl.run_round()
        self.round_walls.append(perf_counter() - t0)
        self.round_cpus.append(process_time() - cpu0)
        self.segments.append(segments)
        self.op_walls += op_walls
        self.failed += failed
        wl.after_round(wl.rounds_done)
        wl.rounds_done += 1

    def calm_round(self, index: int) -> float:
        """Wall (index 0) or CPU (1) seconds of a round rebuilt from the
        lower-decile time of each of its segments.

        Noise on a shared box only ever slows a segment down, and it
        comes in bursts of seconds (every op 1.5x slower for 4-12 s at a
        time, the step a busy sibling hardware thread would cause), so a
        low quantile over many short like-for-like segments is the
        robust form of best-of-N.  On recorded series the lower decile
        moved half as much from window to window as the lower quartile
        when such a burst covered most of a window, and the same
        otherwise; the minimum, one extreme sample, was no steadier.
        """
        return sum(
            lower_decile([segment[index] for segment in position])
            for position in zip(*self.segments)
        )

    def work_per_s(self, work_per_round: int) -> float:
        return work_per_round / self.calm_round(0)


def run_window(
    wl, tracer: Tracer, budget_s: float, min_rounds: int, trace: bool
) -> tuple[Phase, Phase]:
    """Rounds until the budget is used: ``(untraced, traced)``.  A traced
    run alternates the two kinds round by round."""
    plain, traced = Phase(), Phase()
    pids = wl.child_pids()
    children_before = children_cpu_s(pids)
    start = perf_counter()
    while len(plain.round_walls) < min_rounds or perf_counter() - start < budget_s:
        plain.run_round(wl, tracer)
        if trace:
            # Raw spans are kept for the first traced round only.
            tracer.keep = not traced.round_walls
            tracer.install()
            traced.run_round(wl, tracer)
            tracer.uninstall()
    children = children_cpu_s(pids) - children_before
    rounds = len(plain.round_walls) + len(traced.round_walls)
    plain.children_cpu_per_round = traced.children_cpu_per_round = children / rounds
    return plain, traced


def check_expected(wl, seed: int) -> None:
    """Committed digests: the job digests for every seed, the stencil
    fields for the seed they were recorded with."""
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    for name, digest in wl.digests.items():
        if not name.startswith("mode_") and seed != expected["seed"]:
            continue
        if expected[wl.name].get(name) != digest:
            wl.problems.append(f"{wl.name}: digest {name} differs from bench/expected.json")


def probes(smoke: bool) -> dict[str, float]:
    """Direct micro-probes of the thread, future and LCO layers."""
    from repro.runtime import Runtime, ThreadPool, async_, dataflow

    scale = 20 if smoke else 1
    n_spawn, n_async, n_flow = 20_000 // scale, 2_000 // scale, 3_000 // scale
    pool = ThreadPool(4)
    start = perf_counter()
    for _ in range(n_spawn):
        pool.submit(lambda: None)
    pool.run_all()
    spawn = perf_counter() - start

    def roundtrips() -> int:
        return sum(async_(lambda: 1).get() for _ in range(n_async))

    def chain() -> int:
        future = dataflow(lambda: 0)
        for _ in range(n_flow):
            future = dataflow(lambda x: x + 1, future)
        return future.get()

    with Runtime(workers_per_locality=2) as rt:
        start = perf_counter()
        rt.run(roundtrips)
        roundtrip = perf_counter() - start
        start = perf_counter()
        rt.run(chain)
        flow = perf_counter() - start
    return {
        "threads.spawn_us": spawn / n_spawn * 1e6,
        "futures.roundtrip_us": roundtrip / n_async * 1e6,
        "lco.dataflow_us": flow / n_flow * 1e6,
    }


def end_to_end(
    wl, phase: Phase, setups: list[float], peak_rss_mb: float
) -> dict[str, tuple[float, str]]:
    # The worker process's CPU is known for the whole window only.
    cpu_per_round = phase.calm_round(1) + phase.children_cpu_per_round
    return {
        # The calm set-up, by the same argument as the calm round.  The
        # first, cold one (first-touch page faults, lazy imports) is
        # bench.setup_cold_ms: one sample a process, it spreads 5-15 %.
        "setup_s": (lower_decile(setups), "s"),
        "work_per_s": (phase.work_per_s(wl.work_per_round), "1/s"),
        "cpu_s": (cpu_per_round / wl.ops_per_round * wl.ops_per_solution, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def sentinels(
    wl, phase: Phase, setups: list[float], calib_ms: float
) -> dict[str, tuple[float, str]]:
    """Informational: how noisy the box was, and honest op times."""
    q1, q2, q3 = quartiles(phase.round_walls)
    wall, cpu = sum(phase.round_walls), sum(phase.round_cpus)
    op_tail, pct = tail(phase.op_walls)
    return {
        "bench.calib_ms": (calib_ms, "ms"),
        "bench.import_ms": (IMPORT_S * 1e3, "ms"),
        "bench.setup_cold_ms": (setups[0] * 1e3, "ms"),
        "bench.round_spread": ((q3 - q1) / q2, "ratio"),
        # Wall the process was runnable but not running; under the
        # multiprocess backend the gap is time blocked on the worker.
        "bench.steal_frac": (
            0.0 if wl.backend == "multiprocess" else (wall - cpu) / wall,
            "ratio",
        ),
        "bench.rounds": (float(len(phase.round_walls)), "count"),
        "bench.timed_wall_s": (wall, "s"),
        "bench.op_samples": (float(len(phase.op_walls)), "count"),
        "bench.op_p50_ms": (statistics.median(phase.op_walls) * 1e3, "ms"),
        "bench.op_tail_ms": (op_tail * 1e3, "ms"),
        "bench.op_tail_pct": (float(pct), "%"),
    }


def per_layer(
    wl,
    tracer: Tracer,
    untraced: Phase,
    traced: Phase,
    before: tuple[dict, dict],
    after: tuple[dict, dict],
    final_counters: dict[str, float],
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced rounds; 0 where a layer is not on
    this workload's path."""
    totals0, counters0 = before
    totals1, counters1 = after
    ops = len(traced.op_walls)
    traced_wall = sum(traced.round_walls)

    zero = (0, 0.0, 0.0)

    def delta(name: str) -> tuple[int, float, float]:
        """(calls, total seconds, seconds in children) of the traced phase."""
        now, then = totals1.get(name, zero), totals0.get(name, zero)
        return now[0] - then[0], now[1] - then[1], now[2] - then[2]

    def total_s(name: str) -> float:
        return delta(name)[1]

    def self_s(name: str) -> float:
        _calls, total, children = delta(name)
        return total - children

    def calls(name: str) -> int:
        return delta(name)[0]

    def median_ms(name: str, whole_run: bool = False) -> float:
        samples = tracer.durations.get(name, ())
        samples = samples if whole_run else samples[totals0.get(name, zero)[0] :]
        return statistics.median(samples) * 1e3 if samples else 0.0

    def counter_per_op(name: str) -> float:
        # The program counts in untraced rounds too.
        window_ops = ops + len(untraced.op_walls)
        return (counters1.get(name, 0.0) - counters0.get(name, 0.0)) / window_ops

    out: dict[str, tuple[float, str]] = {}
    first_op = wl.first_op_counters
    out["threads.tasks"] = (first_op.get("threads.tasks", 0.0), "count")
    out["parcel.sent"] = (first_op.get("parcel.sent", 0.0), "count")
    out["parcel.bytes"] = (first_op.get("parcel.bytes", 0.0), "B")
    out["sim.virtual_makespan_s"] = (first_op.get("makespan", 0.0), "s")
    tasks = counter_per_op("threads.tasks")
    # Everything inside an op that no shimmed callable covers: the
    # scheduler, futures, LCOs and AGAS.
    mp = wl.backend == "multiprocess"
    # Under the multiprocess backend the driver also blocks on the
    # worker inside an op; that wait is its own metric, not thread cost.
    idle = sum(traced.round_walls) - sum(traced.round_cpus) if mp else 0.0
    out["threads.us_per_task"] = (
        (self_s("op") - idle) / ops / tasks * 1e6 if tasks else 0.0,
        "us",
    )
    encode = self_s("parcel.encode") + self_s("parcel.decode")
    out["parcel.encode_ms_per_op"] = (encode / ops * 1e3, "ms")
    out["parcel.send_ms_per_op"] = (self_s("parcel.send") / ops * 1e3, "ms")
    out["runtime.construct_ms"] = (median_ms("runtime.construct", whole_run=True), "ms")
    out["runtime.teardown_ms"] = (median_ms("runtime.teardown", whole_run=True), "ms")
    out["stencil.initialize_ms"] = (median_ms("stencil.initialize", whole_run=True), "ms")
    kernel = self_s("stencil.kernel")
    op_total = total_s("op")
    out["stencil.kernel_ms_per_op"] = (kernel / ops * 1e3, "ms")
    out["stencil.gather_ms_per_op"] = (self_s("stencil.gather") / ops * 1e3, "ms")
    out["stencil.kernel_share"] = (kernel / op_total if op_total else 0.0, "ratio")
    site_updates = wl.sites * wl.steps
    out["stencil.site_updates"] = (float(site_updates), "count")
    # Only the driver's half of the partitions is visible under the
    # multiprocess backend.  Bytes are computed, not measured.
    seen = site_updates * ops * (0.5 if mp else 1.0)
    out["stencil.computed_gbps"] = (
        seen * BYTES_PER_SITE_UPDATE / kernel / 1e9 if kernel else 0.0,
        "GB/s",
    )
    out["backend.wire_ms_per_op"] = (self_s("backend.wire") / ops * 1e3, "ms")
    out["backend.idle_ms_per_op"] = (idle / ops * 1e3, "ms")
    out["backend.messages"] = (counter_per_op("backend.messages"), "count")
    out["backend.wire_bytes"] = (counter_per_op("backend.wire_bytes"), "B")
    out["backend.relayed"] = (final_counters.get("backend.relayed", 0.0), "count")
    out["backend.sync_rounds"] = (final_counters.get("backend.sync_rounds", 0.0), "count")
    worker_cpu = traced.children_cpu_per_round * len(traced.round_walls)
    out["backend.worker_cpu_ms_per_op"] = (worker_cpu / ops * 1e3, "ms")
    for name in ("open", "submit", "claim", "start", "complete", "replay"):
        out[f"service.{name}_ms"] = (median_ms(f"service.{name}"), "ms")
    growth = wl.submit_growth
    out["service.submit_growth"] = (statistics.median(growth) if growth else 0.0, "ratio")
    out["journal.records"] = (float(wl.journal_records), "count")
    out["journal.bytes"] = (float(wl.journal_bytes), "B")
    out["journal.on_tmpfs"] = (float(wl.on_tmpfs), "flag")
    out["journal.append_us"] = (median_ms("journal.append") * 1e3, "us")
    out["executor.local_ms"] = (median_ms("executor.local"), "ms")
    out["executor.distributed_ms"] = (median_ms("executor.distributed"), "ms")
    out["executor.distributed_share"] = (total_s("executor.distributed") / traced_wall, "ratio")
    jobs = calls("service.complete")
    saves = total_s("checkpoint.save") + total_s("checkpoint.write")
    out["checkpoint.files"] = (calls("checkpoint.write") / jobs if jobs else 0.0, "count")
    out["checkpoint.save_ms_per_job"] = (saves / jobs * 1e3 if jobs else 0.0, "ms")
    out["trace.overhead_frac"] = (
        1.0 - traced.work_per_s(wl.work_per_round) / untraced.work_per_s(wl.work_per_round),
        "ratio",
    )
    # Self times of every span inside the traced rounds over their wall:
    # 1 when no span leaks outside a round.
    layer_sum = sum(self_s(name) for name in totals1)
    out["trace.layer_sum_frac"] = (layer_sum / traced_wall, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    tracer.enabled = tracer.keep = bool(args.trace)
    setups: list[float] = []
    for left in reversed(range(2 if args.smoke else SETUP_REPEATS)):
        wl = WORKLOADS[args.workload](args.seed, tracer, smoke=args.smoke)
        gc.collect()
        start = perf_counter()
        wl.setup()
        setups.append(perf_counter() - start)
        if left:
            wl.teardown()
    tracer.enabled = False
    try:
        wl.check_setup()
        gc.collect()
        calib = [calibrate(args.smoke)]
        before = (tracer.snapshot(), wl.counters())
        untraced, traced = run_window(
            wl,
            tracer,
            0.0 if args.smoke else args.seconds,
            2 if args.smoke else 4,
            bool(args.trace),
        )
        after = (tracer.snapshot(), wl.counters())
        calib.append(calibrate(args.smoke))
        wl.finish()
        if not args.smoke:
            check_expected(wl, args.seed)
    finally:
        tracer.enabled = tracer.keep = bool(args.trace)
        wl.teardown()
    tracer.enabled = False
    final_counters = wl.counters()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    peak_rss_mb = (usage.ru_maxrss + reaped.ru_maxrss) / 1024.0
    metrics = end_to_end(wl, untraced, setups, peak_rss_mb)
    layers = sentinels(wl, untraced, setups, statistics.mean(calib))
    if args.trace:
        layers.update(per_layer(wl, tracer, untraced, traced, before, after, final_counters))
        layers.update({name: (value, "us") for name, value in probes(args.smoke).items()})
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"{args.workload}.trace.json"))

    failed = untraced.failed + traced.failed
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": failed == 0 and not wl.problems,
        "attempted": (len(untraced.round_walls) + len(traced.round_walls)) * wl.ops_per_round,
        "failed": failed,
        "problems": wl.problems[:20],
        "work_unit": wl.work_unit,
        "rounds": len(untraced.round_walls),
        "ops": len(untraced.op_walls),
        "setup_samples": setups,
        "round_walls": untraced.round_walls,
        "round_cpus": untraced.round_cpus,
        "digests": wl.digests,
        "shim_calls": tracer.shim_calls,
        "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "per_layer": {name: {"value": v, "unit": u} for name, (v, u) in layers.items()},
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
