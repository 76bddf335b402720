"""Ablation: time-to-solution vs parcel fault rate.

The resilience claim quantified: on a lossy substrate the futurized
heat solver *never* loses correctness (solutions stay bit-identical to
the fault-free run -- retransmissions bridge every loss), it only loses
time.  This harness sweeps the drop rate and records the virtual
makespan, producing the time-to-solution degradation curve; a second
curve disables the transparent retry layer so the application-level
recovery rounds do the bridging.  Neither mode dominates: transparent
retries wait out the ack-timeout backoff; driver-level resends go out
immediately but re-wait the whole job each recovery round.
"""

import numpy as np

from repro.config import Config
from repro.reporting import Series, format_figure
from repro.resilience import FaultInjector
from repro.runtime.runtime import Runtime
from repro.stencil.heat1d import DistributedHeat1D, Heat1DParams, heat1d_reference

NX, STEPS, SEED = 64, 50, 42
DROP_RATES = (0.0, 0.02, 0.05, 0.10, 0.15)
U0 = np.sin(np.linspace(0.0, 2.0 * np.pi, NX, endpoint=False))


def _time_to_solution(drop_rate: float, retry: bool) -> tuple[float, np.ndarray]:
    injector = (
        FaultInjector(seed=SEED, drop_rate=drop_rate) if drop_rate > 0 else None
    )
    with Runtime(
        machine="xeon-e5-2660v3",
        n_localities=2,
        workers_per_locality=2,
        fault_injector=injector,
        config=Config(parcel__retry=retry),
    ) as rt:
        solver = DistributedHeat1D(rt, NX, Heat1DParams())
        solver.initialize(U0)
        solution = solver.run(STEPS) if retry else solver.run_resilient(STEPS)
        return rt.makespan, solution


def fault_sweep() -> dict[str, list[float]]:
    reference = heat1d_reference(U0, STEPS, Heat1DParams())
    times: dict[str, list[float]] = {"retry": [], "no-retry": []}
    for rate in DROP_RATES:
        for mode, retry in (("retry", True), ("no-retry", False)):
            makespan, solution = _time_to_solution(rate, retry)
            assert np.array_equal(solution, reference)  # faults never cost bits
            times[mode].append(makespan)
    return times


def test_time_to_solution_degrades_gracefully():
    data = fault_sweep()
    with_retry = Series("transparent retry", list(zip(DROP_RATES, data["retry"])))
    recovery_only = Series(
        "recovery rounds only", list(zip(DROP_RATES, data["no-retry"]))
    )
    text = format_figure(
        "Ablation: heat1d time-to-solution vs parcel drop rate, Xeon x2 "
        "(virtual seconds; solutions bit-identical throughout)",
        [with_retry, recovery_only],
        xlabel="drop rate",
        y_format="{:.3e}",
    )
    print(text)
    # Faults cost time: the loss-free run is the fastest in both modes.
    # (The two modes trade differently: transparent retries wait out the
    # ack-timeout backoff, driver-level resends go out immediately but
    # re-wait the job per round -- neither dominates at every rate.)
    assert data["retry"][0] == min(data["retry"])
    assert data["no-retry"][0] == min(data["no-retry"])
    assert all(t >= data["retry"][0] for t in data["retry"][1:])


def test_retry_cost_is_bounded():
    """5% loss should cost well under one order of magnitude in makespan."""
    clean, _ = _time_to_solution(0.0, retry=True)
    faulty, _ = _time_to_solution(0.05, retry=True)
    assert clean < faulty < 10.0 * clean
