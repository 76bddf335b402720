"""Failure injection: errors must surface, never hang or vanish."""

import numpy as np
import pytest

from repro.errors import (
    ChannelClosedError,
    DeadlockError,
    QuiescenceWarning,
    SerializationError,
    ValidationError,
)
from repro.runtime import Channel, Runtime, async_, dataflow, when_all
from repro.runtime.agas import Component
from repro.stencil import DistributedHeat1D, Heat1DParams, analytic_heat_profile


class FaultyComponent(Component):
    def __init__(self, fail_on_call: int) -> None:
        super().__init__()
        self.calls = 0
        self.fail_on_call = fail_on_call

    def work(self) -> int:
        self.calls += 1
        if self.calls == self.fail_on_call:
            raise RuntimeError(f"injected failure on call {self.calls}")
        return self.calls


def failing_action():
    raise OSError("remote disk on fire")


def test_remote_component_exception_reaches_caller():
    with Runtime(machine="a64fx", n_localities=2, workers_per_locality=1) as rt:
        comp = FaultyComponent(fail_on_call=2)
        gid = rt.new_component(comp, locality_id=1)

        def main():
            assert rt.invoke(gid, "work") == 1
            rt.invoke(gid, "work")  # boom

        with pytest.raises(RuntimeError, match="injected failure"):
            rt.run(main)
        # The component survives; later calls work.
        assert rt.run(lambda: rt.invoke(gid, "work")) == 3


def test_remote_plain_action_exception():
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        with pytest.raises(OSError, match="disk on fire"):
            rt.run(lambda: rt.async_at(1, failing_action).get())


def test_unserializable_argument_fails_at_send_site():
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        def main():
            rt.async_at(1, print, lambda: None)  # lambda cannot ship

        with pytest.raises(SerializationError):
            rt.run(main)


def test_exception_mid_dataflow_chain_poisons_the_tail():
    with Runtime(workers_per_locality=2) as rt:
        def main():
            a = dataflow(lambda: 1)
            b = dataflow(lambda x: x / 0, a)  # fails
            c = dataflow(lambda x: x + 1, b)  # must inherit the failure
            return c

        future = rt.run(main)
        with pytest.raises(ZeroDivisionError):
            future.get()


def test_exception_in_one_branch_does_not_block_siblings():
    with Runtime(workers_per_locality=2) as rt:
        def main():
            good = [async_(lambda i=i: i) for i in range(5)]
            bad = async_(lambda: 1 / 0)
            ready = when_all(good + [bad]).get()
            values = [f.get() for f in ready[:-1]]
            with pytest.raises(ZeroDivisionError):
                ready[-1].get()
            return values

        assert rt.run(main) == [0, 1, 2, 3, 4]


def test_channel_closed_mid_wait_raises_not_hangs():
    with Runtime(workers_per_locality=2) as rt:
        channel = Channel("doomed")

        def main():
            future = channel.get()
            async_(channel.close)
            with pytest.raises(ChannelClosedError):
                future.get()
            return "survived"

        assert rt.run(main) == "survived"


def test_missing_halo_deadlocks_cleanly():
    """Kill one partition's chain: its neighbours' waits must raise
    DeadlockError instead of hanging forever, and shutdown must name the
    five continuations (one per step) the dead chain never fired."""
    with pytest.warns(QuiescenceWarning, match="quiesced with 5 demanded future"):
        with Runtime(n_localities=2, workers_per_locality=1) as rt:
            solver = DistributedHeat1D(rt, 64, Heat1DParams())
            solver.initialize(analytic_heat_profile(64))

            def main():
                # Build the chain on partition 0 only; partition 1 stays dead.
                rt.invoke(solver._gids[0], "start_chain", 5)
                return solver._parts[0].final_future.get()

            with pytest.raises(DeadlockError):
                rt.run(main)


def test_context_stack_balanced_after_failures():
    from repro.runtime.context import current_or_none

    depth_before = 0 if current_or_none() is None else 1
    for _ in range(3):
        with pytest.raises(ValueError):
            with Runtime(workers_per_locality=1) as rt:
                rt.run(lambda: (_ for _ in ()).throw(ValueError("boom")))
    after = current_or_none()
    assert (0 if after is None else 1) == depth_before


def test_fire_and_forget_failures_are_recorded():
    with Runtime(workers_per_locality=2) as rt:
        from repro.runtime import apply

        rt.run(lambda: apply(lambda: 1 / 0))
        rt.progress_all()
        pool = rt.localities[0].pool
        assert any(isinstance(exc, ZeroDivisionError) for _, exc in pool.failures)


def test_solver_rejects_corrupt_input_before_spawning_work():
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        solver = DistributedHeat1D(rt, 64, Heat1DParams())
        with pytest.raises(ValidationError):
            solver.initialize(np.full(64, np.nan)[:32])  # wrong shape
        # No stray components were registered by the failed initialize.
        assert len(rt.agas) == 0
