"""The observation seam: the one way anything watches the runtime.

The ParalleX model makes a strong promise: futures, LCOs and parcels are
the *only* legal ordering edges between HPX-threads.  The
:mod:`repro.analysis` sanitizers check that promise dynamically, the
:mod:`repro.observability` tracer and counter sampler record what ran
where and when, and all of them see the runtime (and the job service)
through this module and nothing else: the observed code calls the
installed :class:`Probe` at each point below, and nothing is patched.

Design constraints:

* **Zero cost when disabled.**  Every call site guards with
  ``if instrument.enabled`` (hot sites) or ``instrument.probe is not
  None``, so an un-instrumented run pays one attribute load per site --
  no call, no argument construction.
* **No upward imports.**  This module knows nothing about its
  observers; they subclass :class:`Probe` and are installed with
  :func:`install` / removed with :func:`uninstall`.
* **Composable.**  Several probes (a tracer, a race detector and a
  deadlock detector, say) can be active at once; they are invoked in
  install order.

The method vocabulary (see :class:`Probe` for signatures):

=====================  ========================================================
event                  fired when
=====================  ========================================================
``task_created``       a new HPX-thread is queued (spawn edge parent -> child)
``task_started``       an HPX-thread begins executing on a worker
``task_finished``      an HPX-thread terminated (value or exception delivered)
``state_fulfilled``    a promise/future shared state received its value
``state_read``         a task consumed a ready future's value (join edge)
``state_linked``       a combinator or channel read demanded one future
                       from others (``when_all``/``then``/``dataflow``/
                       ``channel.get``/...; sent by ``futures.demand``)
``state_contribute``   a partial contribution joined an LCO's release clock
                       (a ``when_all`` or ``dataflow`` input)
``token_put``          a clocked token entered a buffer (a channel value)
``token_get``          a clocked token left a buffer
``wait_enter``         a task cooperatively blocked on a shared state
``wait_exit``          the blocked task resumed (or unwound)
``access``             an instrumented read/write of shared component state
``stalled``            the progress engine ran out of runnable work
``quiesced``           the job drained; its table of demanded futures
                       (``Runtime.demanded``) holds the lost continuations
``event``              a discrete event of one of the kinds below happened
=====================  ========================================================

``event`` kinds.  ``time`` is virtual seconds (the job service stamps
its own clock); ``pool``/``worker_id`` locate the event when known;
``parcel_id`` correlates everything that happens to one parcel, which is
what the Chrome-trace flow arrows are drawn from:

==============================  ===============================================
kind                            emitted by / ``args``
==============================  ===============================================
``steal``                       work-stealing scheduler, on the thief's lane
                                at the time the stolen task can start: ``tid``
``parcel_send``                 ``Parcelport.send``, on the sender's lane
                                (again when a stalled or deferred parcel is
                                re-sent): ``attempt``
``parcel_retry``                ``Parcelport.retransmit``: ``attempt``
``parcel_recv``                 the port hands a parcel to the router, stamped
                                with its arrival time (twice if duplicated)
``parcel_drop``                 a transmission was lost (in flight, or the
                                destination was down): ``reason``, ``attempt``
``outage``                      a scheduled locality outage, recorded by the
                                tracer from the fault schedule: ``until``
``parcel_shed``                 overload controller: ``dest``, ``reason``
``parcel_deferred``             overload controller: ``dest``, ``until``
``credit_stall``                overload controller: ``dest``
``credit_resume``               overload controller: ``dest``
``breaker_open``                overload controller: ``dest``, ``reason``
``breaker_close``               overload controller: ``dest``
``breaker_probe``               overload controller: ``dest``
``phi_confirm``                 overload controller: ``dest``, ``phi``
``checkpoint_corrupt_skipped``  a retained epoch failed verification during
                                restore: ``epoch``, ``size_bytes``, ``level``
``race``                        race detector finding: ``location``,
                                ``current``, ``previous``
``deadlock``                    deadlock detector verdict: ``verdict``,
                                ``graph``
``job_submitted``, ``job_deduped``, ``job_shed``, ``job_claimed``,
``job_started``, ``job_done``, ``job_failed``, ``job_retried``,
``job_cancelled``, ``job_requeued``, ``lease_expired``
                                job-service state transitions: ``tenant``,
                                ``job_id`` and per-kind detail
==============================  ===============================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from .threads.hpx_thread import HpxThread

__all__ = ["Probe", "install", "uninstall", "reset", "active_probes"]


class Probe:
    """No-op base class for runtime observers (override what you need)."""

    # Thread lifecycle ------------------------------------------------------
    def task_created(self, parent: "HpxThread | None", task: "HpxThread") -> None:
        """``task`` was queued by ``parent`` (None = the main context)."""

    def task_started(self, task: "HpxThread") -> None:
        """``task`` began running on a worker."""

    def task_finished(self, task: "HpxThread") -> None:
        """``task`` terminated: its result promise is set and its worker's
        clock and counters already include it.  Still inside the task's
        execution frame."""

    # Future / promise edges ------------------------------------------------
    def state_fulfilled(self, state: Any) -> None:
        """A shared state became ready (value or exception stored)."""

    def state_read(self, state: Any) -> None:
        """The current task consumed a ready shared state's value."""

    def state_linked(self, sources: Sequence[Any], target: Any, label: str) -> None:
        """``target`` state is demanded and will be produced from every one
        of ``sources`` (none for a channel read); ``label`` names the
        demand (``when_all(2)``, ``channel.get('halo')``, ...)."""

    def state_contribute(self, state: Any) -> None:
        """The current task contributed to ``state``'s eventual release
        without necessarily being its final fulfiller (a ``when_all`` or
        ``dataflow`` input)."""

    # Buffered hand-offs ----------------------------------------------------
    def token_put(self, obj: Any) -> None:
        """The current task deposited a value into ``obj``'s buffer."""

    def token_get(self, obj: Any) -> None:
        """The current task withdrew a buffered value from ``obj``."""

    # Blocking waits --------------------------------------------------------
    def wait_enter(self, state: Any, detail: str = "") -> None:
        """The current task is about to block on ``state``."""

    def wait_exit(self, state: Any) -> None:
        """The current task resumed from a block on ``state``."""

    # Shared-data accesses --------------------------------------------------
    def access(self, owner: Any, field: str, kind: str) -> None:
        """An instrumented ``kind`` ('read'/'write') of ``owner.field``."""

    # Progress-engine verdicts ---------------------------------------------
    def stalled(self, context: Any = None) -> None:
        """No runnable work remains while a wait is unsatisfied.  A probe
        may raise a richer error here; returning defers to the engine's
        default :class:`~repro.errors.DeadlockError`."""

    def quiesced(self, context: Any = None) -> None:
        """The job ``context`` (the Runtime) drained; a probe may raise if
        work can no longer complete (``context.demanded`` lists the
        demanded futures that never fired)."""

    # Discrete events -------------------------------------------------------
    def event(
        self,
        kind: str,
        time: float,
        pool: str = "",
        worker_id: int | None = None,
        parcel_id: int | None = None,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Something of ``kind`` (see the module's kinds table) happened
        at ``time``."""


#: The active probe, or ``None`` (the fast path).  With several probes
#: installed this is a :class:`_Fanout`; call sites only ever check
#: ``is not None`` and invoke the event method.
probe: Probe | None = None

#: Mirror of ``probe is not None``, kept in sync by :func:`_refresh`.
#: Hot event sites read this one module-level boolean and fetch
#: :data:`probe` only when it is True, so a disabled run pays a single
#: attribute load and truthiness test per event -- no None comparison,
#: no argument construction.
enabled: bool = False

_installed: list[Probe] = []


class _Fanout(Probe):
    """Dispatch every event to each installed probe, in install order."""

    def __init__(self, probes: list[Probe]) -> None:
        self._probes = probes


def _fanout_method(name: str) -> Callable[..., None]:
    def fanout(self: _Fanout, *args: Any, **kwargs: Any) -> None:
        for p in self._probes:
            getattr(p, name)(*args, **kwargs)

    return fanout


for _name in vars(Probe):
    if not _name.startswith("_"):
        setattr(_Fanout, _name, _fanout_method(_name))


def _refresh() -> None:
    global probe, enabled
    if not _installed:
        probe = None
    elif len(_installed) == 1:
        probe = _installed[0]
    else:
        probe = _Fanout(list(_installed))
    enabled = probe is not None


def install(p: Probe) -> None:
    """Activate ``p``; it will receive every runtime event."""
    if p in _installed:
        return
    _installed.append(p)
    _refresh()


def uninstall(p: Probe) -> None:
    """Deactivate ``p`` (no-op if it is not installed)."""
    if p in _installed:
        _installed.remove(p)
    _refresh()


def reset() -> None:
    """Deactivate every probe.  For a forked worker process, which
    inherits the driver's probes but must not report to them."""
    _installed.clear()
    _refresh()


def active_probes() -> list[Probe]:
    """The probes currently receiving events (install order)."""
    return list(_installed)
