"""LCO deadlock detection over a wait-for graph of blocked HPX-threads.

A ParalleX deadlock is a cycle through synchronisation objects: thread A
blocks on a future produced by thread B, which blocks on an LCO that
only A can release.  In the cooperative runtime such cycles surface as a
scheduler stall (no runnable work while a wait is unsatisfied) or -- the
nastier variant -- as a *silent quiescent exit* where the job drains
normally but some continuation chain never fired (e.g. a dataflow cycle
whose first stage was never launched).

:class:`DeadlockDetector` listens to the runtime's instrumentation
events and maintains a :class:`WaitGraph` with three node kinds:

* **threads** -- HPX-threads currently blocked in ``Future.get`` /
  ``wait`` / LCO waits (``wait_enter``/``wait_exit``);
* **shared states** -- promise/future states, edged to whatever must
  happen for them to become ready: their producing thread
  (thread-result promises) or their source states
  (``when_all``/``dataflow``/``then`` links);
* **buffers** -- channels, as pseudo-sources of the promises their
  ``get`` handed out.

On ``stalled`` the detector raises :class:`~repro.errors.DeadlockError`
with the rendered cycle (``thread -> LCO -> thread -> ...``) when one
exists, or the rendered blocked-wait chains otherwise.  On ``quiesced``
it raises if the job's table of demanded futures (``Runtime.demanded``)
still holds any -- the silent-hang case -- and draws each lost
continuation's edges from its own links.
:func:`repro.analysis.wait_graph` exposes the live graph for the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Container, Dict, List, Sequence, Tuple

from ..errors import DeadlockError
from ..runtime import context as ctx
from ..runtime import instrument
from ..runtime.instrument import Probe
from ..runtime.threads.hpx_thread import ThreadState

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.threads.hpx_thread import HpxThread

__all__ = ["DeadlockDetector", "WaitGraph"]


@dataclass(frozen=True)
class _Link:
    """``target`` becomes ready from all of ``sources`` (combinator edge)."""

    target: int
    sources: Tuple[int, ...]
    label: str


@dataclass
class WaitGraph:
    """A snapshot of who waits on what, renderable for humans.

    ``edges`` maps node keys to successor keys ("waits on" direction);
    ``names`` maps node keys to display labels; ``waiters`` lists the
    blocked-thread node keys the traversal starts from.
    """

    edges: Dict[int, List[int]] = field(default_factory=dict)
    names: Dict[int, str] = field(default_factory=dict)
    waiters: List[int] = field(default_factory=list)

    def name(self, key: int) -> str:
        return self.names.get(key, f"node@{key:#x}")

    def find_cycle(self) -> List[int] | None:
        """First dependency cycle found, as a node-key list (no repeat)."""
        WHITE, GREY, BLACK = 0, 1, 2
        colour: Dict[int, int] = {}
        roots = list(self.waiters) + list(self.edges)
        for root in roots:
            if colour.get(root, WHITE) != WHITE:
                continue
            stack: List[Tuple[int, int]] = [(root, 0)]
            path: List[int] = []
            colour[root] = GREY
            path.append(root)
            while stack:
                node, idx = stack[-1]
                succs = self.edges.get(node, [])
                if idx < len(succs):
                    stack[-1] = (node, idx + 1)
                    succ = succs[idx]
                    state = colour.get(succ, WHITE)
                    if state == GREY:
                        return path[path.index(succ):]
                    if state == WHITE:
                        colour[succ] = GREY
                        path.append(succ)
                        stack.append((succ, 0))
                else:
                    stack.pop()
                    path.pop()
                    colour[node] = BLACK
        return None

    def render_cycle(self, cycle: Sequence[int]) -> str:
        parts = [self.name(key) for key in cycle]
        parts.append(self.name(cycle[0]))
        return " -> ".join(parts)

    def render_chains(self, limit: int = 12) -> str:
        """One line per blocked thread: what it waits on, transitively."""
        lines: List[str] = []
        for waiter in self.waiters:
            chain = [waiter]
            seen = {waiter}
            node = waiter
            while len(chain) < limit:
                succs = self.edges.get(node, [])
                nxt = next((s for s in succs if s not in seen), None)
                if nxt is None:
                    break
                chain.append(nxt)
                seen.add(nxt)
                node = nxt
            lines.append(" -> ".join(self.name(key) for key in chain))
        return "\n".join(lines)

    def render(self) -> str:
        cycle = self.find_cycle()
        if cycle is not None:
            return "wait cycle: " + self.render_cycle(cycle)
        if not self.waiters and not self.edges:
            return "wait graph: empty (no blocked threads, no pending links)"
        return "blocked waits:\n" + self.render_chains()

    def to_dot(self) -> str:
        """Render as Graphviz DOT: blocked threads are boxes, awaited
        states ellipses, and any wait cycle is highlighted in red."""
        cycle = self.find_cycle() or []
        cycle_nodes = set(cycle)
        cycle_edges = {
            (cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
        }

        def quote(text: str) -> str:
            return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

        nodes = dict(self.names)
        for src, dsts in self.edges.items():
            nodes.setdefault(src, self.name(src))
            for dst in dsts:
                nodes.setdefault(dst, self.name(dst))
        for waiter in self.waiters:
            nodes.setdefault(waiter, self.name(waiter))
        lines = ["digraph waitfor {", "  rankdir=LR;", "  node [fontsize=10];"]
        for key in sorted(nodes):
            # Thread nodes are negative tids (see DeadlockDetector); 0 is
            # the main context.  Everything else is a shared state.
            shape = "box" if key <= 0 else "ellipse"
            attrs = f"shape={shape}"
            if key in cycle_nodes:
                attrs += ", color=red, penwidth=2"
            elif key in self.waiters:
                attrs += ", style=bold"
            lines.append(f"  n{key & 0xFFFFFFFFFFFFFFFF} [label={quote(nodes[key])}, {attrs}];")
        for src in sorted(self.edges):
            for dst in self.edges[src]:
                style = " [color=red, penwidth=2]" if (src, dst) in cycle_edges else ""
                lines.append(
                    f"  n{src & 0xFFFFFFFFFFFFFFFF} -> n{dst & 0xFFFFFFFFFFFFFFFF}{style};"
                )
        lines.append("}")
        return "\n".join(lines)


class DeadlockDetector(Probe):
    """Wait-for-graph deadlock detection for the cooperative runtime.

    Each verdict is also reported to the installed probes as an
    ``event`` of kind ``"deadlock"``, which puts it on an attached
    tracer's timeline.
    """

    def __init__(self) -> None:
        #: (thread-or-None, state key, detail) for each active block.
        self._waits: List[Tuple[Any, int, str]] = []
        #: state key -> producing HPX-thread (thread-result promises).
        self._producers: Dict[int, Any] = {}
        self._links: List[_Link] = []
        self._fulfilled: set[int] = set()
        self._labels: Dict[int, str] = {}
        #: Strong refs keyed by id() so keys cannot be recycled.
        self._keepalive: Dict[int, Any] = {}
        #: Graph snapshotted when a stall/hang verdict fired.  The live
        #: ``wait_graph()`` empties as the DeadlockError unwinds the
        #: blocked frames (each runs its ``wait_exit``), so post-mortem
        #: consumers (CLI ``--dot``, the schedule explorer's replay
        #: files) read the verdict-time graph from here.
        self.last_graph: WaitGraph | None = None

    def _pin(self, obj: Any) -> int:
        key = id(obj)
        self._keepalive[key] = obj
        return key

    # Probe events ----------------------------------------------------------
    def task_created(self, parent: "HpxThread | None", task: "HpxThread") -> None:
        promise = getattr(task, "promise", None)
        state = getattr(promise, "_state", None)
        if state is not None:
            self._producers[self._pin(state)] = task

    def state_fulfilled(self, state: Any) -> None:
        self._fulfilled.add(self._pin(state))

    def state_linked(self, sources: Sequence[Any], target: Any, label: str) -> None:
        keys = tuple(self._pin(s) for s in sources)
        key = self._pin(target)
        if not keys:
            # Nothing to draw from (a channel read): the label names the
            # state itself.
            self._labels[key] = label
        self._links.append(_Link(key, keys, label))

    def wait_enter(self, state: Any, detail: str = "") -> None:
        self._waits.append((ctx.current_task(), self._pin(state), detail))

    def wait_exit(self, state: Any) -> None:
        key = id(state)
        for i in range(len(self._waits) - 1, -1, -1):
            if self._waits[i][1] == key:
                del self._waits[i]
                return

    # Graph construction ----------------------------------------------------
    def wait_graph(self, targets: Container[int] | None = None) -> WaitGraph:
        """The current graph; with ``targets``, only the links into those
        state keys are drawn."""
        graph = WaitGraph()

        def thread_key(task: Any) -> int:
            return -task.tid if task is not None else 0

        def thread_name(task: Any) -> str:
            if task is None:
                return "main context"
            return f"thread #{task.tid} ({task.description})"

        def state_name(key: int) -> str:
            label = self._labels.get(key)
            if label is not None:
                return label
            producer = self._producers.get(key)
            if producer is not None:
                return f"future<result of thread #{producer.tid} ({producer.description})>"
            return f"future@{key:#x}"

        def add_edge(src: int, dst: int) -> None:
            succs = graph.edges.setdefault(src, [])
            if dst not in succs:
                succs.append(dst)

        def add_state(key: int) -> None:
            graph.names.setdefault(key, state_name(key))
            if key in self._fulfilled:
                return
            producer = self._producers.get(key)
            if producer is not None and producer.state is not ThreadState.TERMINATED:
                tkey = thread_key(producer)
                graph.names.setdefault(tkey, thread_name(producer))
                add_edge(key, tkey)

        for task, key, detail in self._waits:
            tkey = thread_key(task)
            graph.names.setdefault(tkey, thread_name(task))
            if tkey not in graph.waiters:
                graph.waiters.append(tkey)
            add_state(key)
            if detail and key not in self._labels:
                graph.names[key] = f"{graph.names[key]} [{detail}]"
            add_edge(tkey, key)

        for link in self._links:
            if link.target in self._fulfilled or (
                targets is not None and link.target not in targets
            ):
                continue
            pending = [k for k in link.sources if k not in self._fulfilled]
            add_state(link.target)
            if link.label and link.target not in self._labels:
                graph.names[link.target] = f"{graph.names[link.target]} [{link.label}]"
            for skey in pending:
                add_state(skey)
                add_edge(link.target, skey)

        # Blocked threads also block everything their result feeds.
        for task, _key, _detail in self._waits:
            if task is None:
                continue
            state = getattr(getattr(task, "promise", None), "_state", None)
            if state is not None and id(state) in self._keepalive:
                skey = id(state)
                if skey not in self._fulfilled:
                    graph.names.setdefault(skey, state_name(skey))
                    add_edge(skey, thread_key(task))

        return graph

    # Verdicts --------------------------------------------------------------
    def _emit(self, graph: WaitGraph, verdict: str) -> None:
        if instrument.probe is None:
            return
        frame = ctx.current_or_none()
        pool = frame.pool if frame is not None else None
        instrument.probe.event(
            "deadlock",
            pool.now if pool is not None else 0.0,
            pool.name if pool is not None else "",
            frame.worker_id if frame is not None else None,
            args={"verdict": verdict, "graph": graph.render()},
        )

    def stalled(self, context: Any = None) -> None:
        graph = self.wait_graph()
        self.last_graph = graph
        cycle = graph.find_cycle()
        self._emit(graph, "stall")
        if cycle is not None:
            raise DeadlockError(
                "deadlock: no runnable work and the wait-for graph has a "
                "cycle\n  " + graph.render_cycle(cycle)
            )
        raise DeadlockError(
            "deadlock: no runnable work while HPX-threads are blocked\n"
            + graph.render_chains()
        )

    def quiesced(self, context: Any = None) -> None:
        """Raise if the job (``context``, a Runtime) quiesced with
        demanded futures that never fired, or with blocked waits."""
        lost = context.demanded if context is not None else {}
        if not lost and not self._waits:
            return
        lost_keys = {id(state): label for state, label in lost.items()}
        graph = self.wait_graph(lost_keys)
        self.last_graph = graph
        self._emit(graph, "quiesced-with-pending")
        cycle = graph.find_cycle()
        if cycle is not None:
            raise DeadlockError(
                "silent hang: the job quiesced but a continuation cycle "
                "never fired\n  " + graph.render_cycle(cycle)
            )
        lines = []
        for key, label in lost_keys.items():
            line = f"  {graph.names.get(key, label)}"
            sources = graph.edges.get(key)
            if sources:
                line += " still waiting on " + ", ".join(map(graph.name, sources))
            lines.append(line)
        detail = "\n".join(lines)
        raise DeadlockError(
            "silent hang: the job quiesced with continuations that can "
            "never fire\n" + (detail or graph.render_chains())
        )
