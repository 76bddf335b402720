"""The execution-backend seam: how a Runtime turns queued work into progress.

A :class:`Runtime` always owns localities, pools, AGAS, and a parcelport;
what differs between a deterministic simulation and a real multi-core run
is *where the other localities live*.  An :class:`ExecutionBackend`
answers exactly that question:

* the :class:`~repro.runtime.backend.virtual.VirtualClockBackend` says
  "right here" -- every locality is a cooperatively-stepped pool in this
  process and every hook below is a no-op, which keeps the simulation
  hot path (and its bit-exact virtual timings) untouched;
* the :class:`~repro.runtime.backend.multiprocess.MultiprocessBackend`
  says "one OS process each" -- parcels whose destination is another
  process are intercepted at the router and written to a socket pair in
  the existing encode-once wire format, and stalls block on the transport
  instead of raising :class:`~repro.errors.DeadlockError`.

The Runtime consults the backend through a single nullable reference
(``runtime._remote``), so the virtual backend costs one ``is None``
check per progress step and nothing on the send path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, NoReturn

from ...errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from ..agas.component import Component
    from ..agas.gid import Gid
    from ..parcel.parcel import Parcel
    from ..runtime import Runtime

__all__ = ["ExecutionBackend", "VIRTUAL_CLOCK_ONLY", "refuse_off_virtual_clock"]

#: Features whose semantics are defined on the virtual clock, each with
#: the reason a backend on real wall time cannot offer it.  The one list:
#: every refusal is raised from it by :func:`refuse_off_virtual_clock`,
#: and docs/architecture.md ("Execution backends") repeats these words.
VIRTUAL_CLOCK_ONLY = {
    "fault injection": "outage windows and parcel faults are defined on the virtual clock",
    "overload admission control": "credits and phi-accrual suspicion are virtual-clock quantities",
    "modelled machine interconnects": "the multiprocess backend measures the real host instead",
    "run_resilient": (
        "checkpoint recovery drives partition objects directly and replays virtual time"
    ),
    "schedule exploration": "real OS scheduling cannot be replayed",
}


def refuse_off_virtual_clock(feature: str) -> NoReturn:
    """Raise the :class:`ConfigError` for ``feature`` on a backend that
    is not the virtual clock -- failing eagerly beats silently measuring
    something else."""
    raise ConfigError(
        f"{feature} requires the virtual-clock backend "
        f"(runtime.backend='virtual'): {VIRTUAL_CLOCK_ONLY[feature]}"
    )


class ExecutionBackend:
    """Base class and default (inert) behaviour for execution backends.

    Subclasses override the subset of hooks their transport needs; the
    defaults describe a backend where every locality is local, so the
    virtual-clock backend is this class with a name.
    """

    #: Stable identifier, matching the ``runtime.backend`` config value.
    name: str = "base"

    #: True when localities live in other OS processes.  The Runtime
    #: caches ``backend if backend.distributed else None`` as its
    #: ``_remote`` reference, so hot paths pay one None-check.
    distributed: bool = False

    #: Locality id this process is responsible for (0 = driver/console).
    my_id: int = 0

    def attach(self, runtime: "Runtime") -> None:
        """Bind to the owning runtime; called once from ``Runtime.__init__``."""
        self.runtime = runtime

    # Lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Bring up the transport (spawn processes, connect sockets)."""

    def quiesce(self) -> None:
        """Drive the job to a globally idle state before shutdown.

        Called from ``Runtime.stop`` *before* the final local drain and
        quiescence check, so cross-process traffic still in flight can
        land and be executed.
        """

    def stop(self) -> None:
        """Tear down the transport; collect remote statistics."""

    def abort(self) -> None:
        """Best-effort teardown on the error path (no draining)."""

    # Parcel transport ------------------------------------------------------
    def forward_parcel(self, parcel: "Parcel", destination: int) -> None:
        """Carry ``parcel`` to the process owning ``destination``.

        Only called when ``distributed`` and the destination is not
        ``my_id``; the parcel's payload is already real wire bytes, and
        its ``by_ref_body`` must NOT travel -- the receiving process
        decodes the payload.
        """
        raise NotImplementedError

    def maybe_service(self) -> bool:
        """Cheap periodic poll from the progress loop.

        Returns True when inbound traffic was dispatched (the caller
        re-evaluates its predicate).  Must be cheap enough to call once
        per executed task.
        """
        return False

    def poll(self) -> bool:
        """Non-blocking service pass; True when anything was dispatched."""
        return False

    def on_stall(self) -> bool:
        """The progress loop found no runnable work anywhere.

        Block (bounded) on the transport; return True when something was
        dispatched so the caller re-evaluates, False to let the runtime
        raise its usual stall diagnosis.
        """
        return False

    # AGAS ------------------------------------------------------------------
    def component_registered(
        self, component: "Component", gid: "Gid", home: int
    ) -> None:
        """Mirror a new registration to the other processes."""

    # Observability ---------------------------------------------------------
    def counters(self) -> dict[str, float]:
        """Backend-level statistics (perfcounter source; see
        ``/backend{total}/...`` paths)."""
        return {}

    def worker_stats(self) -> dict[int, dict[str, Any]]:
        """Per-remote-process runtime statistics aggregated back to the
        driver at shutdown (empty until ``stop`` on the driver)."""
        return {}
