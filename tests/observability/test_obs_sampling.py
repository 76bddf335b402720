"""Virtual-time counter sampling: determinism, boundaries, serialization."""

import json

import pytest

from repro.errors import ValidationError
from repro.observability import CounterTimeSeries, sample_counters
from repro.runtime import Runtime
from repro.runtime import context as ctx
from repro.runtime import instrument
from repro.stencil import DistributedHeat1D, Heat1DParams, analytic_heat_profile

PATHS = [
    "/threads{total}/count/cumulative",
    "/threads{total}/idle-rate",
    "/parcels{total}/count/sent",
]


def _heat_series(steps=6):
    with Runtime(
        machine="xeon-e5-2660v3", n_localities=2, workers_per_locality=2
    ) as rt:
        solver = DistributedHeat1D(rt, 64, Heat1DParams(), cost_per_step=1.0)
        solver.initialize(analytic_heat_profile(64))
        return sample_counters(
            rt, lambda: solver.run(steps), paths=PATHS, interval=1.0
        )


def test_heat1d_sampling_is_deterministic():
    """Acceptance: the same configuration yields a bit-identical series."""
    first, second = _heat_series(), _heat_series()
    assert first.to_csv() == second.to_csv()
    assert first.times == second.times
    assert first.rows == second.rows


def test_samples_land_on_interval_boundaries():
    series = _heat_series()
    assert len(series) >= 6  # six steps of one virtual second each
    # All but the final completion-time sample sit on exact boundaries.
    for time in series.times[:-1]:
        assert time == pytest.approx(round(time))
    assert series.times == sorted(series.times)


def test_counters_are_monotone_where_cumulative():
    series = _heat_series()
    for path in ("/threads{total}/count/cumulative", "/parcels{total}/count/sent"):
        values = series.values(path)
        assert values == sorted(values)
        assert values[-1] > 0.0


def test_final_sample_at_completion_and_result_stored():
    with Runtime(n_localities=1, workers_per_locality=2) as rt:
        series = sample_counters(
            rt,
            lambda: ctx.add_cost(3.5) or 42,
            paths=["/threads{total}/count/cumulative"],
            interval=1.0,
        )
    assert series.result == 42
    assert series.times[-1] == pytest.approx(rt.makespan)
    # Boundaries 1, 2, 3 crossed by the single task, plus the final sample.
    assert len(series) == 4


def test_seam_is_empty_after_sampling():
    with Runtime(n_localities=1, workers_per_locality=1) as rt:
        sample_counters(
            rt, lambda: None, paths=["/runtime/uptime"], interval=1.0
        )
        assert instrument.active_probes() == [] and instrument.enabled is False
        # ...also when the runaway-job guard aborts the run from the probe.
        with pytest.raises(ValidationError):
            sample_counters(
                rt,
                lambda: ctx.add_cost(10.0),
                paths=["/runtime/uptime"],
                interval=1.0,
                max_samples=3,
            )
        assert instrument.active_probes() == [] and instrument.enabled is False


def test_interval_must_be_positive():
    with Runtime(n_localities=1, workers_per_locality=1) as rt:
        with pytest.raises(ValidationError):
            sample_counters(rt, lambda: None, paths=PATHS, interval=0.0)


def test_series_validates_appends():
    series = CounterTimeSeries(["a", "b"])
    series.append(1.0, [1.0, 2.0])
    with pytest.raises(ValidationError):
        series.append(2.0, [1.0])  # wrong arity
    with pytest.raises(ValidationError):
        series.append(0.5, [0.0, 0.0])  # time went backwards
    with pytest.raises(ValidationError):
        series.values("c")  # unknown path
    with pytest.raises(ValidationError):
        CounterTimeSeries([])


def test_csv_and_json_round_trip():
    series = CounterTimeSeries(["x", "y"])
    series.append(1.0, [0.5, 2.0])
    series.append(2.0, [1.5, 4.0])
    csv = series.to_csv()
    assert csv.splitlines()[0] == "time,x,y"
    assert csv.splitlines()[1] == "1,0.5,2"
    document = json.loads(series.to_json())
    assert document["paths"] == ["x", "y"]
    assert document["samples"][1] == {
        "time": 2.0,
        "values": {"x": 1.5, "y": 4.0},
    }
