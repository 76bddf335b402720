#!/usr/bin/env python3
"""Quickstart: a tour of the ParalleX runtime API.

Covers the pieces a new user needs in order: futures and ``async_``,
``dataflow`` continuation style, the two parallel algorithms the
stencils drive (``for_each`` per element, ``for_each_block`` per chunk)
under an execution policy, LCOs (channel, ``when_all`` joins), and a taste
of the virtual-time model that makes the performance studies possible.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.runtime import Channel, Runtime, async_, dataflow, par, when_all
from repro.runtime import context as ctx
from repro.runtime.algorithms import for_each, for_each_block


def fib(n: int) -> int:
    """The classic recursive-futures fibonacci (HPX's hello-world)."""
    if n < 2:
        return n
    a = async_(fib, n - 1)  # spawn an HPX-thread, get a future
    b = async_(fib, n - 2)
    return a.get() + b.get()  # cooperative blocking: workers keep busy


def dataflow_pipeline() -> int:
    """Continuation style: nothing ever blocks, values flow."""
    raw = dataflow(lambda: list(range(10)))
    squared = dataflow(lambda xs: [x * x for x in xs], raw)
    total = dataflow(sum, squared)
    return total.get()


def parallel_algorithms() -> tuple[list[int], float]:
    doubled: list[int] = []
    for_each(par, range(20), lambda i: doubled.append(2 * i))

    # One call per chunk instead of per element: the body updates its
    # contiguous block with one NumPy operation, as the stencils do.
    squares = np.zeros(100)

    def square_block(chunk: range) -> None:
        squares[chunk.start : chunk.stop] = np.arange(chunk.start, chunk.stop) ** 2

    for_each_block(par, 0, 100, square_block)
    return sorted(doubled), float(squares.sum())


def lco_tour() -> str:
    # Channel: asynchronous FIFO between producer and consumer tasks.
    channel = Channel("pipe")
    async_(lambda: [channel.set(i) for i in range(3)])
    received = [channel.get_sync() for _ in range(3)]

    # when_all: one waiter joins N workers.
    joined = when_all([async_(lambda i=i: i * i) for i in range(4)]).get()
    total = sum(f.get() for f in joined)

    # Lockstep phases: each phase is one join over its workers.
    phases = []
    for phase in ("phase-1", "phase-2"):
        when_all([async_(phases.append, (phase, i)) for i in range(3)]).get()
    first_half = {p for p, _ in phases[:3]}
    return (
        f"received={received}, joined sum={total}, "
        f"phases separated: {first_half == {'phase-1'}}"
    )


def virtual_time_demo() -> str:
    """Attribute modelled compute costs; the pool's clock is virtual."""

    def work():
        ctx.add_cost(1.0)  # this task 'costs' one virtual second

    futures = [async_(work) for _ in range(8)]
    when_all(futures).get()
    return "8x1s of work on 4 workers -> virtual makespan 2s"


def main() -> None:
    # A runtime is one job: localities, thread pools, AGAS, parcelport.
    with Runtime(n_localities=1, workers_per_locality=4) as rt:
        print("fib(12)             =", rt.run(fib, 12))
        print("dataflow pipeline   =", rt.run(dataflow_pipeline))
        doubled, squares = rt.run(parallel_algorithms)
        print("for_each doubled    =", doubled[:5], "...")
        print("for_each_block sum  =", squares, "(squares of 0..99)")
        print("LCO tour            =", rt.run(lco_tour))
        print(rt.run(virtual_time_demo), f"(measured: {rt.makespan:.1f}s)")


if __name__ == "__main__":
    main()
