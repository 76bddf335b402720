"""The paper's models: the calibrated machines, the exhibits, one
machine's STREAM / stencil curves, and its counter table (or a sampled
runtime-counter series over the distributed demo)."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ..errors import RuntimeStateError, ValidationError
from ..hardware.registry import machine, machine_names
from ..runtime import Runtime
from .observe import distributed_demo

# The exhibit, model and reporting layers are imported inside the
# handlers that use them: every verb parses this module's sub-parsers,
# and a ``repro jobs work`` worker should not load them.

#: ``repro.exhibits.EXHIBITS`` in paper order, spelled out so building
#: the parser imports no exhibit (tests/test_cli.py keeps them equal).
EXHIBIT_NAMES = (
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table3",
    "table4",
    "table5",
    "table6",
)


def add_commands(sub: argparse._SubParsersAction) -> None:
    p_machines = sub.add_parser("machines", help="list the calibrated machine models")
    p_machines.set_defaults(handler=_machines)

    p_ex = sub.add_parser("exhibits", help="render paper exhibits")
    p_ex.add_argument(
        "names",
        nargs="*",
        choices=[[], *EXHIBIT_NAMES],  # empty means all
        help="which exhibits (default: all, in paper order)",
    )
    p_ex.set_defaults(handler=_exhibits)

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
    p_stream.set_defaults(handler=_stream)

    p_1d = sub.add_parser("stencil1d", help="1D distributed stencil times")
    machine_arg(p_1d)
    p_1d.add_argument("--nodes", type=int, nargs="+", default=[1, 2, 4, 8])
    p_1d.add_argument("--weak", action="store_true", help="weak scaling")
    p_1d.set_defaults(handler=_stencil1d)

    p_2d = sub.add_parser("stencil2d", help="2D stencil GLUP/s curve")
    machine_arg(p_2d)
    p_2d.add_argument("--dtype", default="float32", choices=("float32", "float64"))
    p_2d.add_argument("--mode", default="simd", choices=("auto", "simd"))
    p_2d.set_defaults(handler=_stencil2d)

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
    p_cnt.set_defaults(handler=_counters)


def _machines(args: argparse.Namespace) -> int:
    from ..reporting import format_table

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
    print(format_table(["id", "model", "cores", "NUMA", "GFLOP/s", "STREAM GB/s"], rows))
    return 0


def _exhibits(args: argparse.Namespace) -> int:
    from .. import exhibits

    parts = [exhibits.EXHIBITS[name]() for name in args.names or exhibits.EXHIBITS]
    print(("\n\n" + "=" * 78 + "\n\n").join(parts))
    return 0


def _stream(args: argparse.Namespace) -> int:
    from ..perf.stream import stream_model
    from ..reporting import Series, format_figure

    m = machine(args.machine)
    series = Series(m.spec.name)
    for cores in range(1, m.spec.cores_per_node + 1):
        series.add(cores, stream_model(m, cores, pinning=args.pinning).bandwidth_gbs)
    print(
        format_figure(
            f"STREAM COPY, {m.spec.name} ({args.pinning} pinning)",
            [series],
            xlabel="cores",
            ylabel="GB/s",
            y_format="{:.1f}",
        )
    )
    return 0


def _stencil1d(args: argparse.Namespace) -> int:
    from ..perf.cost import stencil1d_time
    from ..reporting import Series, format_figure

    m = machine(args.machine)
    series = Series(m.spec.name)
    for n in args.nodes:
        if args.weak:
            series.add(n, stencil1d_time(m, n, points_per_node=480_000_000))
        else:
            series.add(n, stencil1d_time(m, n))
    label = "weak (480e6 pts/node)" if args.weak else "strong (1.2e9 pts)"
    print(
        format_figure(
            f"1D stencil {label}, {m.spec.name}",
            [series],
            xlabel="nodes",
            ylabel="seconds",
            y_format="{:.2f}",
        )
    )
    return 0


def _stencil2d(args: argparse.Namespace) -> int:
    from .. import exhibits
    from ..perf.cost import stencil2d_glups
    from ..reporting import Series, format_figure

    m = machine(args.machine)
    np_dtype = np.float32 if args.dtype == "float32" else np.float64
    series = Series(f"{args.dtype}/{args.mode}")
    for cores in exhibits.core_grid(m.spec.cores_per_node):
        series.add(cores, stencil2d_glups(m, np_dtype, args.mode, cores))
    print(
        format_figure(
            f"2D stencil, {m.spec.name}",
            [series],
            xlabel="cores",
            ylabel="GLUP/s",
            y_format="{:.2f}",
        )
    )
    return 0


#: Default paths for ``counters --sample-interval``.
_SAMPLE_PATHS = (
    "/threads{total}/count/cumulative",
    "/threads{total}/queue/length",
    "/threads{total}/idle-rate",
    "/parcels{total}/count/sent",
)


def _counters(args: argparse.Namespace) -> int:
    if args.sample_interval is None:
        from .. import exhibits

        table, _ = exhibits.COUNTER_TABLES[args.machine]
        print(exhibits.EXHIBITS[table]())
        return 0

    from ..observability import sample_counters

    with Runtime(
        machine=args.machine, n_localities=args.nodes, workers_per_locality=2
    ) as rt:
        solver = distributed_demo(rt)
        try:
            series = sample_counters(
                rt,
                lambda: solver.run(args.steps),
                paths=list(args.paths or _SAMPLE_PATHS),
                interval=args.sample_interval,
            )
        except (ValidationError, RuntimeStateError) as exc:
            # --sample-interval and --paths are the user's: a bad one is usage.
            print(f"repro counters: {exc}", file=sys.stderr)
            return 2
    text = series.to_csv() if args.format == "csv" else series.to_json(indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(
            f"wrote {len(series)} samples x {len(series.paths)} counters "
            f"({args.format}) to {args.output}"
        )
    else:
        print(text.rstrip("\n"))
    return 0
