"""Regression tests for the silent-hang quiescence check (no detector).

Before this check existed, a job whose continuation chain was lost
(e.g. a future cycle) would quiesce *successfully*: ``rt.stop()``
returned, the demanded futures simply never fired, and the bug surfaced
as wrong answers far downstream.  The runtime itself must now flag that
-- warn by default, raise under ``runtime.quiescence="raise"`` -- even
when no sanitizer is attached.
"""

import gc
import warnings

import pytest

from repro.config import Config
from repro.errors import DeadlockError, QuiescenceWarning
from repro.runtime.futures import Promise
from repro.runtime.lco.dataflow import dataflow
from repro.runtime.runtime import Runtime


def _wire_future_cycle():
    """Two dataflows forming a dependency cycle through a promise:
    f1 needs p1, f2 needs f1, and only f2's continuation would set p1.

    Returns p1, so the caller can check that it never fired."""
    p1 = Promise()
    f1 = dataflow(lambda x: x, p1.get_future())
    f2 = dataflow(lambda x: x, f1)
    f2.then(lambda f: p1.set_value(f.get()))
    return p1


def test_two_future_cycle_raises_under_quiescence_raise():
    config = Config(runtime__quiescence="raise")
    with pytest.raises(DeadlockError, match="never become ready"):
        with Runtime(
            n_localities=1, workers_per_locality=2, config=config
        ) as rt:
            held = rt.run(_wire_future_cycle)
    assert not held.is_ready()


def test_two_future_cycle_warns_by_default():
    with pytest.warns(QuiescenceWarning, match="dataflow"):
        with Runtime(n_localities=1, workers_per_locality=2) as rt:
            held = rt.run(_wire_future_cycle)
    assert not held.is_ready()


def test_states_collected_mid_run_do_not_mask_this_jobs_lost_chains():
    """A demand that pre-dates the run is not the job's loss, and its
    state being collected mid-run leaves the job's own lost chains --
    three demanded futures per cycle -- all reported."""
    stale = Promise()
    dataflow(lambda x: x, stale.get_future())
    config = Config(runtime__quiescence="raise")
    held = []
    with pytest.raises(DeadlockError, match=r"with 60 demanded"):
        with Runtime(n_localities=1, workers_per_locality=2, config=config) as rt:
            del stale
            gc.collect()
            held.extend(rt.run(_wire_future_cycle) for _ in range(20))


def test_unheld_lost_dataflow_is_reported_whether_or_not_gc_ran():
    """The job's table holds its demanded states: the verdict cannot
    depend on whether a cyclic-GC pass freed an unreferenced chain."""
    config = Config(runtime__quiescence="raise")
    for collect in (False, True):
        with pytest.raises(DeadlockError, match=r"with 1 demanded future.*dataflow"):
            with Runtime(n_localities=1, workers_per_locality=2, config=config) as rt:
                def main():
                    dataflow(lambda x: x, Promise().get_future())

                rt.run(main)
                if collect:
                    gc.collect()


def test_quiescence_ignore_mode_is_silent():
    config = Config(runtime__quiescence="ignore")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning would fail the test
        with Runtime(
            n_localities=1, workers_per_locality=2, config=config
        ) as rt:
            rt.run(_wire_future_cycle)


def test_clean_job_quiesces_without_warning():
    # Demands made outside the job -- outside any runtime, or by an
    # earlier job -- are not this job's loss.
    outside = Promise()
    dataflow(lambda x: x, outside.get_future())
    with Runtime(
        n_localities=1, workers_per_locality=2,
        config=Config(runtime__quiescence="ignore"),
    ) as earlier:
        earlier.run(_wire_future_cycle)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Runtime(n_localities=1, workers_per_locality=2) as rt:
            def main():
                p = Promise()
                f = dataflow(lambda x: x + 1, p.get_future())
                p.set_value(41)
                return f.get()

            assert rt.run(main) == 42


def test_abandoned_channel_read_is_flagged():
    from repro.runtime.lco import Channel

    config = Config(runtime__quiescence="raise")
    with pytest.raises(DeadlockError, match="channel.get"):
        with Runtime(
            n_localities=1, workers_per_locality=2, config=config
        ) as rt:
            def main():
                # Never fulfilled, and nobody keeps the future: still lost.
                Channel("halo").get()

            rt.run(main)


def test_invalid_quiescence_mode_rejected():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        Config(runtime__quiescence="explode")
