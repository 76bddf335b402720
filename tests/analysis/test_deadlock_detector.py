"""Wait-for-graph deadlock detection: stalls, cycles, silent hangs."""

import pytest

from repro import analysis
from repro.errors import DeadlockError
from repro.runtime import context as ctx
from repro.runtime.futures import Promise, when_all
from repro.runtime.lco import Channel
from repro.runtime.lco.dataflow import dataflow
from repro.runtime.runtime import Runtime
from repro.runtime.threads.pool import ThreadPool


def test_two_thread_future_cycle_renders_wait_cycle():
    """A waits on B's result while B waits on A's: the classic cycle.

    The detector must raise with the rendered cycle
    (thread -> future -> thread -> future -> ...), not the pool's
    generic stall message.
    """
    pool = ThreadPool(2)
    handles = {}

    def task_a():
        return handles["fb"].get()

    def task_b():
        return handles["fa"].get()

    with analysis.attach(races=False):
        fa = pool.submit(task_a, description="task-a")
        fb = pool.submit(task_b, description="task-b")
        handles.update(fa=fa, fb=fb)
        pool.run_all()

    with pytest.raises(DeadlockError) as excinfo:
        fa.get()
    message = str(excinfo.value)
    assert "wait-for graph has a cycle" in message
    assert "task-a" in message and "task-b" in message
    assert "->" in message  # the rendered thread -> LCO -> thread chain


def test_underfilled_when_all_deadlocks_with_join_label():
    """Joining two promises of which only one is ever set blocks forever."""
    with pytest.raises(DeadlockError) as excinfo:
        with analysis.attach(races=False):
            with Runtime(n_localities=1, workers_per_locality=2) as rt:
                def main():
                    p0, p1 = Promise(), Promise()
                    p0.set_value("only half")
                    return when_all([p0.get_future(), p1.get_future()]).get()

                rt.run(main)
    assert "when_all(2)" in str(excinfo.value)


def test_parties_blocked_on_underfilled_join_deadlock():
    """2 of 3 parties arrive at a shared join and wait on it: both block
    forever, and the report names the join."""
    with pytest.raises(DeadlockError) as excinfo:
        with analysis.attach(races=False):
            with Runtime(n_localities=1, workers_per_locality=2) as rt:
                def main():
                    arrivals = [Promise() for _ in range(3)]
                    join = when_all([p.get_future() for p in arrivals])

                    def arrive_and_wait(i):
                        arrivals[i].set_value(i)
                        return join.get()

                    ctx.current().pool.submit(
                        lambda: arrive_and_wait(1), description="second-party"
                    )
                    arrive_and_wait(0)

                rt.run(main)
    message = str(excinfo.value)
    assert "blocked" in message or "cycle" in message
    assert "when_all(3)" in message


def test_channel_self_receive_deadlocks_with_channel_label():
    """A task receiving from a channel nobody ever feeds."""
    with pytest.raises(DeadlockError) as excinfo:
        with analysis.attach(races=False):
            with Runtime(n_localities=1, workers_per_locality=2) as rt:
                def main():
                    chan = Channel("loopback")
                    return chan.get_sync()

                rt.run(main)
    assert "channel.get('loopback')" in str(excinfo.value)


def test_silent_hang_lost_dataflow_raises_at_quiescence():
    """A dataflow whose dependency never fires: the job drains without
    blocking, but the continuation is silently lost."""
    with pytest.raises(DeadlockError, match="silent hang"):
        with analysis.attach(races=False):
            with Runtime(n_localities=1, workers_per_locality=2) as rt:
                def main():
                    never_set = Promise()
                    dataflow(lambda x: x, never_set.get_future())

                rt.run(main)


def test_silent_hang_abandoned_channel_read_raises_at_quiescence():
    """The verdict comes from the job's table of demanded futures, so a
    lost channel read counts as well as a lost combinator link."""
    with pytest.raises(DeadlockError, match=r"silent hang[\s\S]*channel\.get\('halo'\)"):
        with analysis.attach(races=False):
            with Runtime(n_localities=1, workers_per_locality=2) as rt:
                def main():
                    Channel("halo").get()

                rt.run(main)


def test_wait_graph_is_empty_without_blocks():
    with analysis.attach(races=False):
        with Runtime(n_localities=1, workers_per_locality=2) as rt:
            rt.run(lambda: 42)
            graph = analysis.wait_graph()
    assert graph.find_cycle() is None
    assert "empty" in graph.render()


def test_wait_graph_without_detector_is_empty():
    graph = analysis.wait_graph()
    assert graph.waiters == [] and graph.edges == {}


def test_deadlock_emits_trace_event():
    from repro.observability.tracer import Tracer

    tracer = Tracer()
    pool = ThreadPool(1)
    orphan = Promise().get_future()
    with tracer.attach(pool), analysis.attach(races=False):
        failed = pool.submit(orphan.get, description="orphan-wait")
        pool.run_all()
    with pytest.raises(DeadlockError):
        failed.get()
    kinds = [event.kind for event in tracer.events]
    assert "deadlock" in kinds
