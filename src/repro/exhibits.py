"""One function per paper exhibit: Tables I-VI, Figures 2-8.

Every function returns renderable data (via :mod:`repro.reporting`) built
from the calibrated models.  :data:`EXHIBITS` is the one list of them, in
paper order: ``python -m repro exhibits``, the tier-1 exhibit tests and
EXPERIMENTS.md all read it.  Nothing here is cached or stateful; each
call recomputes the exhibit from the registry.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from .hardware.registry import machine, machine_names
from .perf.cost import (
    PAPER_GRID_2D,
    PAPER_GRID_2D_LARGE,
    PAPER_STEPS,
    STRONG_SCALING_POINTS,
    WEAK_SCALING_POINTS_PER_NODE,
    expected_peak_2d,
    stencil1d_time,
    stencil2d_glups,
)
from .perf.counters import CounterModel
from .perf.stream import stream_model
from .reporting import Series, format_figure, format_scientific, format_table

__all__ = [
    "EXHIBITS",
    "COUNTER_TABLES",
    "core_grid",
    "table1",
    "table2",
    "render_table2",
    "fig2_stream",
    "fig3_1d_scaling",
    "fig_2d_stencil",
    "counter_table",
    "render_table1",
    "render_fig2",
    "render_fig3",
    "render_fig_2d",
    "render_counter_table",
    "DTYPE_VARIANTS",
]

#: The four kernel variants of Figs 4-8, paper naming.
DTYPE_VARIANTS: tuple[tuple[str, np.dtype, str], ...] = (
    ("Float", np.dtype(np.float32), "auto"),
    ("Vector Float", np.dtype(np.float32), "simd"),
    ("Double", np.dtype(np.float64), "auto"),
    ("Vector Double", np.dtype(np.float64), "simd"),
)


def core_grid(n_cores: int) -> list[int]:
    """Core counts the figures sample: multiples of 8 as in the paper's
    plots, plus the single-core and full-node points."""
    grid = [1] + [c for c in range(8, n_cores + 1, 8)]
    if grid[-1] != n_cores:
        grid.append(n_cores)  # e.g. the Xeon's 20-core node
    return grid


# Table I --------------------------------------------------------------------

def table1() -> tuple[list[str], list[list[str]]]:
    """Headers and rows of Table I (specs of the four nodes)."""
    machines = [machine(name) for name in machine_names()]
    keys = list(machines[0].spec.table1_row().keys())[1:]  # skip name key
    headers = [""] + [m.spec.name for m in machines]
    rows = []
    for key in keys:
        rows.append([key] + [m.spec.table1_row()[key] for m in machines])
    return headers, rows


def render_table1() -> str:
    headers, rows = table1()
    return "TABLE I: Specification of the Arm and x86 nodes\n" + format_table(
        headers, rows
    )


# Table II -------------------------------------------------------------------

def table2() -> tuple[list[str], list[list[str]]]:
    """Table II (benchmark dependencies) with this reproduction's
    substitutes -- the substitution record in exhibit form."""
    headers = ["Package Name", "Paper Version", "This reproduction"]
    rows = [
        ["GCC", "10.1", "CPython (no native codegen; SIMD is modelled)"],
        ["hwloc", "2.1", "repro.hardware.topology (+ topology_render)"],
        ["jemalloc", "5.2.1", "n/a (NumPy buffers)"],
        ["boost", "1.66", "n/a (Python stdlib)"],
        ["HPX", "commit c62d992", "repro.runtime (ParalleX runtime in Python)"],
        ["NSIMD", "commit d4f9fc5", "repro.simd (packs + VNS layout)"],
        ["PAPI", "6.0.0", "repro.hardware.counters + repro.perf.counters"],
    ]
    return headers, rows


def render_table2() -> str:
    headers, rows = table2()
    return (
        "TABLE II: Benchmark dependencies Configuration "
        "(paper vs this reproduction)\n" + format_table(headers, rows)
    )


# Fig 2 ----------------------------------------------------------------------

def fig2_stream(pinning: str = "compact") -> list[Series]:
    """STREAM COPY GB/s vs core count, one series per machine."""
    series = []
    for name in machine_names():
        m = machine(name)
        s = Series(m.spec.name)
        for cores in core_grid(m.spec.cores_per_node):
            s.add(cores, stream_model(m, cores, pinning=pinning).bandwidth_gbs)
        series.append(s)
    return series


def render_fig2() -> str:
    parts = ["Fig 2: Memory Bandwidth using the STREAM COPY Benchmark "
             "(128M elements, best of 10)"]
    for s in fig2_stream():
        parts.append(
            format_figure(s.name, [s], xlabel="cores", ylabel="GB/s", y_format="{:.1f}")
        )
    return "\n\n".join(parts)


# Fig 3 ----------------------------------------------------------------------

def fig3_1d_scaling(nodes: tuple[int, ...] = (1, 2, 4, 8)) -> dict[str, list[Series]]:
    """Strong and weak 1D-stencil scaling, one series per machine."""
    strong, weak = [], []
    for name in machine_names():
        m = machine(name)
        s_strong = Series(m.spec.name)
        s_weak = Series(m.spec.name)
        for n in nodes:
            s_strong.add(n, stencil1d_time(m, n, total_points=STRONG_SCALING_POINTS))
            s_weak.add(
                n, stencil1d_time(m, n, points_per_node=WEAK_SCALING_POINTS_PER_NODE)
            )
        strong.append(s_strong)
        weak.append(s_weak)
    return {"strong": strong, "weak": weak}


def render_fig3() -> str:
    data = fig3_1d_scaling()
    strong = format_figure(
        "Strong scaling (1.2e9 stencil points, 100 steps)",
        data["strong"],
        xlabel="nodes",
        ylabel="seconds",
        y_format="{:.2f}",
    )
    weak = format_figure(
        "Weak scaling (480e6 stencil points per node, 100 steps)",
        data["weak"],
        xlabel="nodes",
        ylabel="seconds",
        y_format="{:.2f}",
    )
    return "Fig 3: 1D Stencil: Distributed Results\n\n" + strong + "\n\n" + weak


# Figs 4-8 ---------------------------------------------------------------------

def fig_2d_stencil(machine_name: str, with_peaks: bool = True) -> list[Series]:
    """GLUP/s vs cores for the four kernel variants (+ roofline peaks).

    There is no grid parameter: the rate model is grid-size-independent
    in the measured range (the Fig 7 result).
    """
    m = machine(machine_name)
    cores_grid = core_grid(m.spec.cores_per_node)
    series = []
    for label, dtype, mode in DTYPE_VARIANTS:
        s = Series(label)
        for cores in cores_grid:
            s.add(cores, stencil2d_glups(m, dtype, mode, cores))
        series.append(s)
    if with_peaks:
        for transfers, label in ((3, "Expected Peak Min"), (2, "Expected Peak Max")):
            for dtype, dlabel in ((np.float32, "Float"), (np.float64, "Double")):
                s = Series(f"{label} ({dlabel})")
                for cores in cores_grid:
                    s.add(cores, expected_peak_2d(m, dtype, cores, transfers))
                series.append(s)
    return series


def render_fig_2d(
    label: str, machine_name: str, grid: tuple[int, int] = PAPER_GRID_2D
) -> str:
    """One of Figs 4-8; ``label`` is the paper's figure number and
    ``grid`` only shows in the title."""
    m = machine(machine_name)
    ny, nx = grid
    title = (
        f"{label}: 2D stencil, {m.spec.name}, grid {ny}x{nx}, "
        f"{PAPER_STEPS} time steps"
    )
    return format_figure(
        title,
        fig_2d_stencil(machine_name),
        xlabel="cores",
        ylabel="GLUP/s",
        y_format="{:.2f}",
    )


# Tables III-VI -------------------------------------------------------------------

#: Tables III-VI are one per machine, in paper order:
#: machine -> (exhibit name, paper label).
COUNTER_TABLES = {
    "xeon-e5-2660v3": ("table3", "TABLE III"),
    "kunpeng916": ("table4", "TABLE IV"),
    "a64fx": ("table5", "TABLE V"),
    "thunderx2": ("table6", "TABLE VI"),
}

_COUNTER_LABELS = {
    "PAPI_TOT_INS": "Instruction",
    "PAPI_L2_TCM": "Cache Misses",
    "STALL_FRONTEND": "Frontend Stalls",
    "STALL_BACKEND": "Backend Stalls",
}


def counter_table(machine_name: str) -> tuple[list[str], list[list[str]]]:
    """Headers and rows of the machine's hardware-counter table."""
    model = CounterModel(machine(machine_name))
    names = model.counter_names()
    headers = ["Data Type"] + [_COUNTER_LABELS[n] for n in names]
    rows = []
    for label, dtype, mode in DTYPE_VARIANTS:
        predicted = model.predict(dtype.name, mode)
        rows.append([label] + [format_scientific(predicted[n]) for n in names])
    return headers, rows


def render_counter_table(machine_name: str) -> str:
    table_label = COUNTER_TABLES[machine_name][1]
    headers, rows = counter_table(machine_name)
    m = machine(machine_name)
    return f"{table_label}: Hardware Counters for {m.spec.name}\n" + format_table(
        headers, rows
    )


# The exhibit list ------------------------------------------------------------

#: Every exhibit of the paper, name -> renderer, in paper order.
EXHIBITS: dict[str, Callable[[], str]] = {
    "table1": render_table1,
    "table2": render_table2,
    "fig2": render_fig2,
    "fig3": render_fig3,
    "fig4": partial(render_fig_2d, "Fig 4", "xeon-e5-2660v3"),
    "fig5": partial(render_fig_2d, "Fig 5", "kunpeng916"),
    "fig6": partial(render_fig_2d, "Fig 6", "a64fx"),
    "fig7": partial(render_fig_2d, "Fig 7", "a64fx", PAPER_GRID_2D_LARGE),
    "fig8": partial(render_fig_2d, "Fig 8", "thunderx2"),
    **{
        name: partial(render_counter_table, machine_name)
        for machine_name, (name, _) in COUNTER_TABLES.items()
    },
}
