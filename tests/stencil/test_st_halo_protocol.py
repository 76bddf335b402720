"""The halo-exchange protocol, checked once for both instantiations.

Every test runs against ``Heat1DPartition`` / ``DistributedHeat1D`` and
against ``Jacobi2DPartition`` / ``DistributedJacobi2D``: what is pinned
here is the behaviour of :mod:`repro.stencil.halo`, reached through each
application's own wire-visible names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.runtime import Runtime
from repro.runtime.perfcounters import query
from repro.stencil.halo import EDGE_LOG_STEPS, HaloDriver, HaloPartition
from repro.stencil.heat1d import DistributedHeat1D, Heat1DParams, Heat1DPartition
from repro.stencil.jacobi2d_dist import DistributedJacobi2D, Jacobi2DPartition


@dataclass(frozen=True)
class App:
    partition: Callable[[], HaloPartition]
    driver: Callable[[Runtime], HaloDriver]
    field: np.ndarray
    halo: Any  # a well-formed halo payload
    checkpoint_keys: tuple[str, ...]
    driver_cls: type[HaloDriver]
    send: str  # with ``advance``, what bench/tracing.py binds by ``Cls.__dict__``


_RNG = np.random.default_rng(3)

APPS = {
    "heat1d": App(
        partition=lambda: Heat1DPartition(np.arange(4.0), Heat1DParams()),
        driver=lambda rt: DistributedHeat1D(
            rt, 8, Heat1DParams(), partitions_per_locality=2
        ),
        field=_RNG.random(8),
        halo=1.5,
        checkpoint_keys=("u", "steps_done", "edge_log", "params", "cost_per_step"),
        driver_cls=DistributedHeat1D,
        send="send_boundaries",
    ),
    "jacobi2d": App(
        partition=lambda: Jacobi2DPartition(np.arange(20.0).reshape(4, 5)),
        driver=lambda rt: DistributedJacobi2D(rt, 6, 5, partitions_per_locality=2),
        field=_RNG.random((6, 5)),
        halo=np.full(5, 1.5),
        checkpoint_keys=("u", "steps_done", "edge_log", "cost_per_step"),
        driver_cls=DistributedJacobi2D,
        send="send_edges",
    ),
}


@pytest.fixture(params=sorted(APPS))
def app(request) -> App:
    return APPS[request.param]


@pytest.fixture
def rt():
    with Runtime(n_localities=2, workers_per_locality=1) as runtime:
        yield runtime


def _deposit(part: HaloPartition, step: int, side: str, value) -> None:
    getattr(part, part.deposit_action)(step, side, value)


def _send(part: HaloPartition, step: int) -> None:
    getattr(part, part.send_method)(step)


# The partition -------------------------------------------------------------
def test_wire_names_are_aliases_and_profiled_methods_are_own(app):
    cls, driver_cls = type(app.partition()), app.driver_cls
    assert cls.__dict__[cls.deposit_action] is HaloPartition.deposit
    assert cls.__dict__[driver_cls.connect_action] is HaloPartition.connect_here
    assert callable(getattr(cls, driver_cls.gather_action))
    assert cls.send_method == app.send
    assert {"advance", app.send} <= set(cls.__dict__)
    assert "solution" in driver_cls.__dict__


def test_bad_side_rejected(app):
    with pytest.raises(ValidationError, match="halo side"):
        _deposit(app.partition(), 0, "north", app.halo)


def test_out_of_order_advance_rejected(app, rt):
    part = app.partition()
    before = part.u.copy()
    rt.new_component(part)
    part.connect(rt, None, None)
    with pytest.raises(ValidationError, match="out of order"):
        rt.run(lambda: part.advance(3, app.halo, app.halo))
    assert part.steps_done == 0 and np.array_equal(part.u, before)


def test_unconnected_partition_rejected(app):
    with pytest.raises(ValidationError, match="not connected"):
        _send(app.partition(), 0)
    with pytest.raises(ValidationError, match="not connected"):
        app.partition().ensure_chain(2)


def test_second_deposit_of_a_step_and_side_is_ignored(app, rt):
    part = app.partition()
    gid = rt.new_component(part)
    part.connect(rt, gid, gid)
    lo_side, hi_side = part.sides
    _deposit(part, 4, lo_side, app.halo)
    _deposit(part, 4, lo_side, app.halo * 2)
    assert np.array_equal(part.halo_future(4, lo_side).get(), app.halo)
    assert not part.halo_future(4, hi_side).is_ready()
    assert not part.halo_future(5, lo_side).is_ready()


def test_open_end_sides_are_always_ready(app, rt):
    part = app.partition()
    gid = rt.new_component(part)
    lo_side, hi_side = part.sides
    part.connect(rt, None, gid)
    assert part.halo_future(0, lo_side).is_ready()
    assert part.halo_future(7, lo_side).get() is None
    assert not part.halo_future(0, hi_side).is_ready()
    part.connect(rt, None, None)
    assert part.halo_future(7, hi_side).is_ready()


def test_resend_ships_only_what_was_produced(app, rt):
    part, other = app.partition(), app.partition()
    gid, other_gid = rt.new_component(part), rt.new_component(other, locality_id=1)
    part.connect(rt, None, other_gid)
    other.connect(rt, gid, None)

    def job():
        assert part.resend_edges(0) is False  # nothing produced yet
        _send(part, 0)
        sent = query(rt, "/parcels{total}/count/sent")
        assert part.resend_edges(0) is True
        assert part.resend_edges(1) is False
        resent = query(rt, "/parcels{total}/count/sent") - sent
        # My high edge is the low-side halo of the neighbour above.
        return resent, other.halo_future(0, other.sides[0]).get()

    resent, landed = rt.run(job)
    assert resent == 1  # one neighbour exists, one parcel re-shipped
    assert np.array_equal(landed, part._edge_log[0][1])


# The chain, through the driver ------------------------------------------------
def test_edge_log_keeps_a_bounded_window(app, rt):
    solver = app.driver(rt)
    solver.initialize(app.field)
    steps = EDGE_LOG_STEPS + 6
    rt.run(lambda: solver.run(steps))
    for part in solver._parts:
        # The last EDGE_LOG_STEPS consumed steps plus the one just sent.
        assert sorted(part._edge_log) == list(range(steps - EDGE_LOG_STEPS, steps + 1))
        # Consumed promises are dropped; only halos of the next step wait.
        assert all(step == steps for step, _side in part._halos)


def test_ensure_chain_twice_builds_once(app, rt):
    solver = app.driver(rt)
    solver.initialize(app.field)
    part, gid = solver._parts[0], solver._gids[0]

    def job():
        for other in solver._gids[1:]:
            rt.invoke(other, "ensure_chain", 5)
        rt.invoke(gid, "ensure_chain", 5)
        tail = part.final_future
        rt.invoke(gid, "ensure_chain", 5)  # already built: left alone
        rt.invoke(gid, "ensure_chain", 3)  # absolute target below the tail
        assert part.final_future is tail and part._chain_until == 5
        return rt.invoke(gid, "chain_result", 5)

    assert rt.run(job) == 5 and part.steps_done == 5


def test_checkpoint_round_trip_leaves_a_fresh_chain(app, rt):
    solver = app.driver(rt)
    solver.initialize(app.field)
    rt.run(lambda: solver.run(10))
    states = [part.checkpoint_state() for part in solver._parts]
    assert all(tuple(state) == app.checkpoint_keys for state in states)
    expected = rt.run(lambda: solver.run(5))  # the uninterrupted 15-step field
    for part, state in zip(solver._parts, states):
        part.restore_state(state)
        assert part.steps_done == 10 and np.array_equal(part.u, state["u"])
        assert part.u is not state["u"]
        assert list(part._edge_log) == list(state["edge_log"])
        for step, edges in state["edge_log"].items():
            assert all(np.array_equal(a, b) for a, b in zip(part._edge_log[step], edges))
        assert part._chain_until is None and not part._halos
        assert part.final_future.is_ready() and part.final_future.get() == 10

    def rerun():
        # The halos of step 10 were consumed before the rollback: the
        # neighbours re-ship them from their restored logs.
        solver.resend_stuck(15)
        return solver.run(5)

    assert np.array_equal(rt.run(rerun), expected)


# The driver -----------------------------------------------------------------
def test_driver_preconditions(app, rt):
    solver = app.driver(rt)
    for call in (solver.solution, lambda: solver.run(1), lambda: solver.run_resilient(1)):
        with pytest.raises(ValidationError, match=r"call initialize\(\) before"):
            call()
    solver.initialize(app.field)
    for run in (solver.run, solver.run_resilient):
        with pytest.raises(ValidationError, match="non-negative"):
            run(-1)
        assert np.array_equal(rt.run(lambda run=run: run(0)), app.field)
