"""The AGAS resolution service.

One logical service for the whole job (HPX hosts the authoritative
partition on locality 0).  It maps GIDs to ``(home locality, object)``,
maintains reference counts, and performs migration.  Resolution is the
*only* way to find an object: callers must not cache the home locality,
because migration invalidates it -- exactly the property the migration
tests exercise.

What resolution hands back is the table's own :class:`_Entry`, and that
handle may be *carried* (a parcel does, from send to delivery) because
nothing about it goes stale silently: migration rewrites ``home`` in
place, and ``unregister`` / the last ``decref`` clear ``alive`` -- the
one condition under which a holder must resolve the GID again.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ...errors import AgasError, MigrationError, UnknownGidError
from .gid import Gid

__all__ = ["AgasService"]


class _Entry:
    """One row of the AGAS table, and the handle :meth:`AgasService.entry`
    resolves a GID to."""

    __slots__ = ("obj", "home", "refcount", "pinned", "alive")

    def __init__(self, obj: Any, home: int) -> None:
        self.obj = obj
        self.home = home
        self.refcount = 1  # the creating reference
        self.pinned = 0  # active local accesses; migration must wait
        #: False once the row left the table (unregister, refcount zero):
        #: a carried handle is then stale and the GID must be looked up
        #: again, which raises unless it was registered anew.
        self.alive = True


class AgasService:
    """GID allocation, resolution, reference counting, migration."""

    def __init__(self, n_localities: int) -> None:
        if n_localities < 1:
            raise AgasError("AGAS needs at least one locality")
        self.n_localities = n_localities
        self._counters = [0] * n_localities
        self._table: dict[Gid, _Entry] = {}
        #: Called with (gid, obj) when a refcount hits zero.
        self.on_destroy: Callable[[Gid, Any], None] | None = None

    # Registration ---------------------------------------------------------------
    def register(self, obj: Any, home: int) -> Gid:
        """Bind ``obj`` to a fresh GID homed at locality ``home``."""
        self._check_locality(home)
        self._counters[home] += 1
        gid = Gid(msb_locality=home, lsb=self._counters[home])
        self._table[gid] = _Entry(obj, home)
        return gid

    def register_at(self, obj: Any, gid: Gid, home: int) -> Gid:
        """Bind ``obj`` under a fixed, externally-allocated GID.

        The cross-process mirroring primitive: every process replays the
        allocating process's registrations under identical GIDs (the
        non-home processes bind a placeholder).  Advances the local
        counter so a later local :meth:`register` cannot collide.
        """
        self._check_locality(home)
        if gid in self._table:
            raise AgasError(f"{gid!r} is already registered")
        counters = self._counters
        owner = gid.msb_locality
        if gid.lsb > counters[owner]:
            counters[owner] = gid.lsb
        self._table[gid] = _Entry(obj, home)
        return gid

    def unregister(self, gid: Gid) -> Any:
        """Forcefully unbind (used by tests/teardown); returns the object."""
        entry = self._lookup(gid)
        del self._table[gid]
        entry.alive = False
        return entry.obj

    # Resolution ------------------------------------------------------------------
    def entry(self, gid: Gid) -> _Entry:
        """The live table row for ``gid``: home, object, pin count.

        The handle stays correct across migration (``home`` is updated
        in place); only ``alive`` turning False invalidates it.
        """
        return self._lookup(gid)

    def resolve(self, gid: Gid) -> tuple[int, Any]:
        """Current ``(home locality, object)`` for ``gid``."""
        entry = self._lookup(gid)
        return entry.home, entry.obj

    def home_of(self, gid: Gid) -> int:
        return self._lookup(gid).home

    def is_local(self, gid: Gid, locality: int) -> bool:
        return self._lookup(gid).home == locality

    def __contains__(self, gid: Gid) -> bool:
        return gid in self._table

    def __len__(self) -> int:
        return len(self._table)

    # Reference counting -----------------------------------------------------------
    def incref(self, gid: Gid, credits: int = 1) -> int:
        """Add ``credits`` references; returns the new count."""
        if credits < 1:
            raise AgasError(f"incref needs credits >= 1, got {credits}")
        entry = self._lookup(gid)
        entry.refcount += credits
        return entry.refcount

    def decref(self, gid: Gid, credits: int = 1) -> int:
        """Drop ``credits`` references; destroys the object at zero."""
        if credits < 1:
            raise AgasError(f"decref needs credits >= 1, got {credits}")
        entry = self._lookup(gid)
        if credits > entry.refcount:
            raise AgasError(
                f"refcount underflow for {gid!r}: {entry.refcount} - {credits}"
            )
        entry.refcount -= credits
        if entry.refcount == 0:
            del self._table[gid]
            entry.alive = False
            if self.on_destroy is not None:
                self.on_destroy(gid, entry.obj)
            return 0
        return entry.refcount

    def refcount(self, gid: Gid) -> int:
        return self._lookup(gid).refcount

    # Pinning / migration -------------------------------------------------------------
    def pin(self, gid: Gid) -> None:
        """Mark the object as locally in use; blocks migration."""
        self._lookup(gid).pinned += 1

    def unpin(self, gid: Gid) -> None:
        entry = self._lookup(gid)
        if entry.pinned == 0:
            raise AgasError(f"unpin without pin for {gid!r}")
        entry.pinned -= 1

    def migrate(self, gid: Gid, to_locality: int) -> int:
        """Move the object's home; the GID stays valid.  Returns new home."""
        self._check_locality(to_locality)
        entry = self._lookup(gid)
        if entry.pinned:
            raise MigrationError(
                f"cannot migrate {gid!r}: pinned by {entry.pinned} local users"
            )
        entry.home = to_locality
        obj = entry.obj
        if hasattr(obj, "on_migrated"):
            obj.on_migrated(to_locality)
        return entry.home

    def gids_homed_at(self, locality: int) -> list[Gid]:
        """All GIDs currently homed at ``locality``, in registration order.

        GIDs are allocated ``(home locality, counter)``, so sorting gives
        a deterministic order independent of dict insertion history.
        """
        self._check_locality(locality)
        return sorted(gid for gid, entry in self._table.items() if entry.home == locality)

    def evacuate(
        self, from_locality: int, survivors: Sequence[int]
    ) -> list[tuple[Gid, int]]:
        """Re-home everything on ``from_locality`` onto ``survivors``.

        The permanent-crash recovery primitive: every GID homed at the
        dead locality is migrated round-robin across the survivors (in
        deterministic GID order, so a seeded run re-homes identically
        every time).  Reference counts and GIDs are preserved by
        :meth:`migrate`; a pinned object raises
        :class:`~repro.errors.MigrationError`, which at recovery time
        means state was lost mid-action -- the caller must restore from
        a checkpoint anyway.  Returns ``[(gid, new_home), ...]``.
        """
        if not survivors:
            raise AgasError("evacuation needs at least one surviving locality")
        for survivor in survivors:
            self._check_locality(survivor)
            if survivor == from_locality:
                raise AgasError(
                    f"locality {from_locality} cannot survive its own evacuation"
                )
        moved: list[tuple[Gid, int]] = []
        for i, gid in enumerate(self.gids_homed_at(from_locality)):
            new_home = survivors[i % len(survivors)]
            self.migrate(gid, new_home)
            moved.append((gid, new_home))
        return moved

    # Internals --------------------------------------------------------------------
    def _lookup(self, gid: Gid) -> _Entry:
        try:
            return self._table[gid]
        except KeyError:
            raise UnknownGidError(f"{gid!r} is not (or no longer) registered") from None

    def _check_locality(self, locality: int) -> None:
        if not 0 <= locality < self.n_localities:
            raise AgasError(
                f"locality {locality} out of range [0, {self.n_localities})"
            )
