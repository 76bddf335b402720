"""Crash recovery for the halo-exchange chain.

:meth:`HaloDriver.run_resilient <repro.stencil.halo.HaloDriver.run_resilient>`
-- one method serving heat1d's periodic ring and jacobi2d's row blocks
alike -- drives its partitions through :func:`run_with_recovery`, which
layers two recovery mechanisms over the parcel retry machinery:

* **Dead-letter rounds** (transient faults): when the job stalls on
  dead-lettered work, drain the queue, re-invoke ``ensure_chain`` for
  every unfinished partition (idempotent on a live chain), and ask the
  neighbours of each stuck partition to re-send the halo values it waits
  on (:meth:`HaloDriver.resend_stuck
  <repro.stencil.halo.HaloDriver.resend_stuck>`).
* **Checkpoint restart** (permanent crashes): partitions are snapshotted
  as coordinated epochs every ``checkpoint_every`` steps (the epoch
  barrier is the blocking ``when_all`` over the partitions' step
  futures: when it fires, no other work is runnable anywhere).  When a
  stall escalates to a *confirmed-dead* locality -- the parcelport
  suspected it after exhausting every retransmission, and the fault
  schedule says the outage is permanent -- the driver decommissions the
  node, re-homes its components onto the survivors
  (:meth:`~repro.runtime.agas.service.AgasService.evacuate`), restores
  every partition from the newest intact epoch, and re-drives the
  chains.  Because the stencils are deterministic, recomputation from
  the epoch produces bit-identical results, and redelivered halos from
  either timeline are idempotent.

The rollback is race-free by construction: recovery only runs when the
progress engine has proven that *no* runnable work exists anywhere, so
no queued task can touch the partitions' abandoned promises after
``restore_state`` resets them.

The partitions are :class:`~repro.stencil.halo.HaloPartition` objects:
what this module uses of them is ``steps_done``, the ``ensure_chain(absolute
target)`` component action, ``final_future``, and ``checkpoint_state()``
/ ``restore_state()``, where restore also resets the live chain to a
quiesced baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from ..errors import BrokenPromiseError, DeadlockError, ParcelDeadLetterError
from ..resilience.checkpoint import CheckpointStore
from ..runtime.futures import when_all
from ..runtime.runtime import Runtime

if TYPE_CHECKING:
    from .halo import HaloDriver, HaloPartition

__all__ = ["run_with_recovery"]


def _epoch_boundaries(start: int, target: int, every: int) -> list[int]:
    """Steps at which to quiesce: multiples of ``every``, then ``target``."""
    if every <= 0:
        return [target]
    bounds = list(range(start + every, target, every))
    bounds.append(target)
    return bounds


def _confirmed_dead(runtime: Runtime) -> list[int]:
    """Suspected localities whose outage the fault schedule confirms as
    permanent (and that are not already decommissioned)."""
    injector = runtime.fault_injector
    if injector is None:
        return []
    now = runtime.makespan
    return sorted(
        loc
        for loc in runtime.parcelport.suspected_dead
        if loc not in runtime.decommissioned and injector.permanently_down(loc, now)
    )


def _recover_from_crash(
    runtime: Runtime,
    parts: Sequence[HaloPartition],
    dead: list[int],
    store: CheckpointStore,
) -> None:
    """Decommission the dead nodes, re-home, roll back to a checkpoint."""
    for loc in dead:
        runtime.decommission_locality(loc)
    survivors = [
        loc.locality_id
        for loc in runtime.localities
        if loc.locality_id not in runtime.decommissioned
    ]
    for loc in dead:
        runtime.agas.evacuate(loc, survivors)
    # Roll every partition back to one coordinated epoch (restore_state
    # also resets its live chain), then forgive the continuation chains
    # the rollback abandoned so the quiescence check stays meaningful.
    _on_the_clock(runtime, store.restore_latest_valid, parts)
    runtime.forgive_lost_continuations()


def _on_the_clock(runtime: Runtime, fn: Callable[..., object], *args: object) -> None:
    """Run a checkpoint save or restore as an HPX-thread on locality 0.

    The driver runs outside any HPX-thread, where ``add_cost`` has no task
    to charge: called from there, the ``checkpoint.cost_*`` charge would
    reach the ``/checkpoints`` counters but never the virtual clock.  As
    a task it starts when the last locality has drained (the coordinated
    epoch's barrier; the driver's own clock, locality 0's, can lag it),
    occupies a locality-0 worker for its cost, and the next epoch's
    parcels leave after it.
    """
    future = runtime.localities[0].pool.submit(
        fn, *args, ready_time=runtime.makespan, description="checkpoint"
    )
    runtime.progress_until(future.is_ready)
    future.get()


def _advance_to(
    driver: HaloDriver,
    boundary: int,
    store: CheckpointStore | None,
    max_recovery_rounds: int,
) -> None:
    """Drive every partition to absolute step ``boundary``, recovering."""
    runtime, parts, gids = driver.runtime, driver._parts, driver._gids
    port = runtime.parcelport
    fruitless = 0
    while True:
        progress = [part.steps_done for part in parts]
        try:
            chains = [
                runtime.invoke_async(gid, "ensure_chain", boundary)
                for p, gid in enumerate(gids)
                if parts[p].steps_done < boundary
            ]
            # ``when_all(...).get()`` yields the member futures without
            # raising their stored exceptions (HPX semantics); each member
            # must be ``get`` explicitly or a dead-lettered invocation is
            # silently swallowed -- e.g. a crash at the last epoch leaves
            # the dead node's partition one step short while its stale
            # ``final_future`` from the previous epoch is already ready,
            # so the completion barrier below would pass regardless.
            for chain in when_all(chains).get():
                chain.get()
            when_all([part.final_future for part in parts]).get()
            for part in parts:
                part.final_future.get()
            return
        except (ParcelDeadLetterError, DeadlockError, BrokenPromiseError):
            # A DeadlockError here is a lost halo whose dead-letter
            # record was consumed by an earlier round (the partition
            # advanced *into* the gap after the queue was drained); it
            # is recoverable the same way.
            dead = _confirmed_dead(runtime)
            if dead:
                if store is None:
                    raise
                _recover_from_crash(runtime, parts, dead, store)
                fruitless = 0
            elif [part.steps_done for part in parts] == progress:
                fruitless += 1
                if fruitless > max_recovery_rounds:
                    raise
            else:
                fruitless = 0
            # The abandoned parcels are being re-driven; consume them.
            port.dead_letters.clear()
            port.suspected_dead.clear()
            driver.resend_stuck(boundary)


def run_with_recovery(
    driver: HaloDriver,
    steps: int,
    *,
    max_recovery_rounds: int = 3,
    checkpoint_every: int = 0,
) -> None:
    """Advance all of ``driver``'s partitions ``steps`` steps, surviving faults.

    ``checkpoint_every`` (epoch length in steps; 0 disables periodic
    epochs) controls the coordinated-snapshot cadence.  An initial epoch
    is always taken when checkpointing is active *or* the fault schedule
    contains a permanent crash -- without a baseline, a crash before the
    first boundary would be unrecoverable.  Checkpoint/restore time is charged through the
    cost model (``checkpoint.cost_*`` knobs) and surfaces in the
    ``/checkpoints{total}`` perfcounters.
    """
    runtime, parts = driver.runtime, driver._parts
    start = parts[0].steps_done
    target = start + steps
    injector = runtime.fault_injector
    store: CheckpointStore | None = None
    if checkpoint_every > 0 or (injector is not None and injector.has_permanent_failures):
        store = CheckpointStore(runtime=runtime)
        _on_the_clock(runtime, store.save, start, parts)
    for boundary in _epoch_boundaries(start, target, checkpoint_every):
        _advance_to(driver, boundary, store, max_recovery_rounds)
        if store is not None and checkpoint_every > 0 and boundary < target:
            _on_the_clock(runtime, store.save, boundary, parts)
