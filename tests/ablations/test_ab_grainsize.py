"""Ablation: task grain size vs AMT overhead.

"Like every AMT model, HPX is known to have contention overheads when
the grain size is too small" (Sec. VII-B).  This ablation fixes the
total work and sweeps the number of tasks it is cut into: each task
carries a fixed scheduling overhead, so efficiency collapses below a
machine-dependent grain -- the effect behind A64FX's modest 1D rate.
"""

import pytest

from repro.runtime import context as ctx
from repro.runtime.threads.pool import ThreadPool
from repro.reporting import Series, format_figure

TOTAL_WORK = 64.0  # virtual seconds of useful compute
PER_TASK_OVERHEAD = 2.0e-3  # virtual seconds of scheduling overhead
N_WORKERS = 8


def makespan_for_grain(n_tasks: int) -> float:
    pool = ThreadPool(N_WORKERS)
    work = TOTAL_WORK / n_tasks

    def task():
        ctx.add_cost(PER_TASK_OVERHEAD + work)

    for _ in range(n_tasks):
        pool.submit(task)
    return pool.run_all()


GRAINS = [8, 32, 128, 512, 2048, 8192]


def test_grain_size_sweep():
    times = {n: makespan_for_grain(n) for n in GRAINS}
    ideal = TOTAL_WORK / N_WORKERS
    series = Series("makespan", [(n, times[n]) for n in GRAINS])
    efficiency = Series("efficiency", [(n, ideal / times[n]) for n in GRAINS])
    print(
        format_figure(
            f"Ablation: grain size sweep ({TOTAL_WORK:.0f}s of work, "
            f"{N_WORKERS} workers, {PER_TASK_OVERHEAD * 1e3:.0f} ms/task overhead)",
            [series, efficiency],
            xlabel="tasks",
            y_format="{:.3f}",
        )
    )
    # Coarse grains waste workers; the sweet spot beats both extremes.
    assert times[8] == pytest.approx(ideal, rel=0.01)  # 8 tasks / 8 workers: perfect
    # Efficiency decays monotonically once overhead dominates.
    assert times[512] < times[8192]
    # At 8192 tasks overhead is 8192 x 2 ms / 8 = 2.05s extra.
    assert times[8192] == pytest.approx(
        ideal + 8192 * PER_TASK_OVERHEAD / N_WORKERS, rel=0.01
    )


def test_efficiency_floor_at_tiny_grains():
    """Overhead-dominated regime: efficiency ~ work/(work+overhead)."""
    ideal = TOTAL_WORK / N_WORKERS
    t = makespan_for_grain(32768)
    efficiency = ideal / t
    expected = TOTAL_WORK / (TOTAL_WORK + 32768 * PER_TASK_OVERHEAD)
    assert efficiency == pytest.approx(expected, rel=0.02)
