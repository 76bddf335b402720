"""Spans measured from outside the program under test.

Two sources feed one span tree: ``Tracer.span(name)`` around the calls
``bench/`` itself makes, and a timing shim that ``install`` puts on a
fixed allow-list of *public* callables of ``repro``.  Nothing inside
``src/`` is edited; spans inside the program are a later change.

A span is ``{name, start, end, parent, run}``.  Every span is folded
into per-name totals as it closes (count, total, time covered by child
spans), so self time = total - children without keeping millions of
records (only each duration is kept, for medians); the raw spans of
set-up, of the first traced round and of teardown are kept and written
to ``bench/out/<workload>.trace.json``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
from array import array
from time import perf_counter

#: Public callables the traced run wraps: (module, class or None,
#: attribute, span name).  A function is patched at every binding site
#: (every ``repro`` module that imported it by name), a method on its
#: class.  bench/tests asserts each records a span on the workload that
#: should exercise it, so a moved or renamed callable fails loudly
#: instead of leaving a silently empty layer.
ALLOW_LIST = (
    ("repro.runtime.parcel.serialization", None, "serialize", "parcel.encode"),
    ("repro.runtime.parcel.serialization", None, "deserialize", "parcel.decode"),
    ("repro.stencil.heat1d", "Heat1DPartition", "advance", "stencil.kernel"),
    ("repro.stencil.heat1d", "Heat1DPartition", "send_boundaries", "parcel.send"),
    ("repro.stencil.heat1d", "DistributedHeat1D", "solution", "stencil.gather"),
    ("repro.stencil.jacobi2d_dist", "Jacobi2DPartition", "advance", "stencil.kernel"),
    ("repro.stencil.jacobi2d_dist", "Jacobi2DPartition", "send_edges", "parcel.send"),
    ("repro.stencil.jacobi2d_dist", "DistributedJacobi2D", "solution", "stencil.gather"),
    ("repro.runtime.backend.wire", None, "send_message", "backend.wire"),
    ("repro.runtime.backend.wire", None, "decode_message", "backend.wire"),
    ("repro.runtime.runtime", "Runtime", "__init__", "runtime.construct"),
    ("repro.runtime.runtime", "Runtime", "start", "runtime.start"),
    ("repro.runtime.runtime", "Runtime", "stop", "runtime.teardown"),
    ("repro.service.journal", "Journal", "append", "journal.append"),
    ("repro.resilience.checkpoint", None, "save_checkpoint", "checkpoint.save"),
    ("repro.resilience.checkpoint", "Checkpoint", "write", "checkpoint.write"),
)


def shim_key(module: str, cls: str | None, attr: str) -> str:
    return ".".join(part for part in (module, cls, attr) if part)


class Tracer:
    """In-memory span recorder; inert until ``enabled`` is set."""

    def __init__(self, run: str) -> None:
        self.run = run
        self.enabled = False
        #: Keep raw span records (not just totals) while True.
        self.keep = False
        self.spans: list[list] = []  # [name, start, end, parent index]
        #: name -> [count, total seconds, seconds covered by child spans]
        self.totals: dict[str, list] = {}
        #: name -> every duration in closing order (8 bytes a span).
        self.durations: dict[str, array] = {}
        #: shim key -> calls seen (which allow-list entries fired).
        self.shim_calls: dict[str, int] = {}
        # Open spans: [seconds covered by children so far, raw index or None].
        self._stack: list[list] = []
        #: (holder, attribute, original, shim) of every binding site.
        self._patches: list[tuple] = []

    # Recording -------------------------------------------------------------
    def _record(self, name: str) -> tuple[list, array]:
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
            self.durations[name] = array("d")
        return total, self.durations[name]

    def _open(self, name: str, start: float) -> list:
        index = None
        if self.keep:
            parent = self._stack[-1][1] if self._stack else None
            index = len(self.spans)
            self.spans.append([name, start, start, parent])
        frame = [0.0, index]
        self._stack.append(frame)
        return frame

    def _close(self, record: tuple[list, array], frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][0] += duration
        total, durations = record
        total[0] += 1
        total[1] += duration
        total[2] += frame[0]
        durations.append(duration)
        if frame[1] is not None:
            self.spans[frame[1]][2] = end

    @contextlib.contextmanager
    def _span(self, name: str):
        start = perf_counter()
        frame = self._open(name, start)
        try:
            yield
        finally:
            self._close(self._record(name), frame, start, perf_counter())

    def span(self, name: str):
        """Context manager around one of the benchmark's own calls."""
        return self._span(name) if self.enabled else contextlib.nullcontext()

    # Shims -----------------------------------------------------------------
    def _shim(self, fn, name: str, key: str):
        calls = self.shim_calls
        calls[key] = 0
        record = self._record(name)
        open_span, close_span = self._open, self._close

        def shim(*args, **kwargs):
            calls[key] += 1
            start = perf_counter()
            frame = open_span(name, start)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(record, frame, start, perf_counter())

        return shim

    def _prepare(self) -> None:
        """Build the shim of every allow-listed callable, once."""
        for module_name, cls_name, attr, span_name in ALLOW_LIST:
            module = importlib.import_module(module_name)
            key = shim_key(module_name, cls_name, attr)
            if cls_name is not None:
                holders = [getattr(module, cls_name)]
                original = holders[0].__dict__[attr]
            else:
                original = getattr(module, attr)
                holders = [
                    mod
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name.startswith("repro")
                    and getattr(mod, attr, None) is original
                ]
            shim = self._shim(original, span_name, key)
            self._patches += [(holder, attr, original, shim) for holder in holders]

    def install(self) -> None:
        """Put the shims in and record spans; undone by ``uninstall``.
        Cheap after the first call, so a traced run can switch round by
        round."""
        if not self._patches:
            self._prepare()
        for holder, attr, _original, shim in self._patches:
            setattr(holder, attr, shim)
        self.enabled = True

    def uninstall(self) -> None:
        for holder, attr, original, _shim in self._patches:
            setattr(holder, attr, original)
        self.enabled = False

    # Reading ---------------------------------------------------------------
    def snapshot(self) -> dict[str, tuple]:
        return {name: tuple(total) for name, total in self.totals.items()}

    def write(self, path: str) -> None:
        spans = [
            {"name": name, "start": start, "end": end, "parent": parent, "run": self.run}
            for name, start, end, parent in self.spans
        ]
        totals = {
            name: {"count": count, "total_s": total, "self_s": total - children}
            for name, (count, total, children) in sorted(self.totals.items())
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run, "totals": totals, "spans": spans}, fh)
