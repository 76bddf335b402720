"""Help-stack inversion deadlock, reachable only with two preemptions.

Four workers cooperate through a ``when_all`` join of two promises and
a Channel:

* ``contrib_a``   -- sets promise 0 immediately;
* ``contrib_b``   -- blocks for the channel token, then sets promise 1;
* ``producer``    -- puts the token into the channel;
* ``consumer``    -- waits for the join of both promises.

On the default FIFO schedule this always completes: ``contrib_b``
blocks, the cooperative scheduler "helps" by running ``producer``,
the token arrives, and everything unwinds.  But helping is a LIFO
stack: a task blocked *beneath* another blocked task cannot resume
until the one above it finishes.  If the explorer first dispatches
``contrib_b`` (preemption one: it blocks on the channel) and then
``consumer`` (preemption two: it blocks on the join, on top of
``contrib_b``), then even after ``contrib_a`` and ``producer`` run,
``contrib_b`` is pinned under ``consumer`` and can never set promise 1
-- the join never fires and the runtime stalls.  No single-schedule
sanitizer sees this; it needs exactly this two-preemption interleaving.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.analysis.explore import ExploreApp
from repro.runtime.futures import Promise, when_all
from repro.runtime.lco import Channel
from repro.runtime.runtime import Runtime


def _build(rt: Runtime) -> Callable[[], Any]:
    p0, p1 = Promise(), Promise()
    ch = Channel("token")

    def contrib_a() -> None:
        p0.set_value(1)

    def contrib_b() -> None:
        value = ch.get_sync()
        p1.set_value(value)

    def producer() -> None:
        ch.set(7)

    def consumer() -> Any:
        return when_all([p0.get_future(), p1.get_future()]).get()

    def job() -> Any:
        pool = rt.localities[0].pool
        futures = [
            pool.submit(contrib_a, description="contrib-a"),
            pool.submit(contrib_b, description="contrib-b"),
            pool.submit(producer, description="producer"),
            pool.submit(consumer, description="consumer"),
        ]
        return [f.get() for f in futures]

    return job


def make_app() -> ExploreApp:
    return ExploreApp(name="corpus/join_deadlock", build=_build,
                      n_localities=1, workers_per_locality=1)
