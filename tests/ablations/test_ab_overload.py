"""Ablation: graceful degradation under parcel-ingress overload.

The overload-protection claim quantified: when a locality is offered
parcels faster than it can drain them, the admission controller keeps
the backlog *bounded* -- LOW-priority storm traffic is deferred and
shed at the ingress edge while the NORMAL-priority application traffic
rides credit-based flow control -- and the application's answer stays
bit-identical to an unloaded run.  This harness sweeps the
ingress-to-drain ratio and records the target locality's peak queue
depth with protection on and off.  Without protection the backlog
grows linearly with the offered load; with protection it plateaus, and
the difference is absorbed by the shed/defer counters instead of the
queue.
"""

import numpy as np

from repro.config import Config
from repro.reporting import Series, format_figure
from repro.runtime import context as ctx
from repro.runtime.runtime import Runtime
from repro.runtime.threads.hpx_thread import ThreadPriority
from repro.stencil.heat1d import DistributedHeat1D, Heat1DParams, heat1d_reference

NX, STEPS = 64, 30
U0 = np.sin(np.linspace(0.0, 2.0 * np.pi, NX, endpoint=False))

#: Offered-load multipliers: 1x is at drain capacity, 10x is the
#: ISSUE-level "10x ingress storm" scenario.
FACTORS = (1.0, 4.0, 10.0)

# Storm shape (mirrors ``repro run --overload``): each wave offers
# ``4 * factor`` sink tasks against a drain capacity of 4 per wave, so
# the factor is literally the ingress-to-drain ratio.
_WAVES = 20
_SINK_COST_S = 1e-3
_WAVE_DT_S = 2e-3


def _sink(cost: float) -> None:
    """Storm payload: pure virtual compute at the target locality."""
    ctx.add_cost(cost)


def _launch_storm(rt: Runtime, factor: float) -> dict:
    """Chain LOW-priority parcel waves at the last locality."""
    target = rt.n_localities - 1
    pool0 = rt.localities[0].pool
    per_wave = max(1, int(4 * factor))

    def wave(index: int) -> None:
        for _ in range(per_wave):
            rt.apply_at(target, _sink, _SINK_COST_S, priority=ThreadPriority.LOW)
        if index + 1 < _WAVES:
            pool0.submit(
                wave,
                index + 1,
                ready_time=pool0.now + _WAVE_DT_S,
                description=f"storm-wave#{index + 1}",
            )

    pool0.submit(wave, 0, description="storm-wave#0")
    return {"submitted": per_wave * _WAVES, "target_pool": rt.localities[target].pool}


def _storm_run(factor: float, protected: bool) -> dict:
    config = Config(overload__enabled=True) if protected else None
    with Runtime(n_localities=2, workers_per_locality=2, config=config) as rt:
        solver = DistributedHeat1D(rt, NX, Heat1DParams())
        solver.initialize(U0)
        storm = _launch_storm(rt, factor)
        solution = rt.run(lambda: solver.run(STEPS))
        controller = getattr(rt, "_overload", None)
        return {
            "solution": solution,
            "makespan": rt.makespan,
            "peak_depth": storm["target_pool"].peak_pending,
            "submitted": storm["submitted"],
            "shed": controller.parcels_shed if controller is not None else 0,
            "deferred": controller.parcels_deferred if controller is not None else 0,
        }


def overload_sweep() -> dict[str, list[dict]]:
    reference = heat1d_reference(U0, STEPS, Heat1DParams())
    runs: dict[str, list[dict]] = {"protected": [], "unprotected": []}
    for factor in FACTORS:
        for mode, protected in (("protected", True), ("unprotected", False)):
            run = _storm_run(factor, protected)
            # Overload never costs bits, only queue depth or sheds.
            assert np.array_equal(run["solution"], reference)
            runs[mode].append(run)
    return runs


def test_overload_bounds_queue_depth():
    data = overload_sweep()
    protected = Series(
        "protected",
        [(f, run["peak_depth"]) for f, run in zip(FACTORS, data["protected"])],
    )
    unprotected = Series(
        "unprotected",
        [(f, run["peak_depth"]) for f, run in zip(FACTORS, data["unprotected"])],
    )
    text = format_figure(
        "Ablation: heat1d peak target-queue depth vs storm ingress factor "
        "(solutions bit-identical throughout)",
        [protected, unprotected],
        xlabel="ingress/drain ratio",
        y_format="{:.0f}",
    )
    print(text)
    prot_10x = data["protected"][-1]
    unprot_10x = data["unprotected"][-1]
    # Graceful degradation: at 10x the protected backlog is a fraction
    # of the unprotected one, and the missing parcels are accounted for
    # by the shed/defer counters rather than silently queued.
    assert prot_10x["peak_depth"] < unprot_10x["peak_depth"]
    assert prot_10x["shed"] + prot_10x["deferred"] > 0
    # Protection plateaus: scaling 4x -> 10x offered load must not scale
    # the protected backlog proportionally (the admission edge absorbs it).
    prot_4x = data["protected"][1]
    assert prot_10x["peak_depth"] <= 2 * max(1, prot_4x["peak_depth"])


def test_overload_overhead_is_bounded_when_healthy():
    """At drain capacity (1x) protection may not cost 2x in makespan."""
    protected = _storm_run(1.0, protected=True)
    unprotected = _storm_run(1.0, protected=False)
    assert protected["makespan"] <= 2.0 * unprotected["makespan"]
