"""HPX-style checkpoint/restart for components, LCOs, and containers.

Mirrors ``hpx::util::checkpoint``: :func:`save_checkpoint` serializes
any mix of AGAS components, LCOs, or plain picklable values into a
versioned, checksummed :class:`Checkpoint` object, and
:func:`restore_checkpoint` restores the same objects *in place*,
positionally.  Objects participate through a two-method protocol:

``checkpoint_state() -> state``
    Return a picklable snapshot of the durable state (application data,
    not transient wiring: no promises, no AGAS addresses).
``restore_state(state) -> None``
    Rebuild from such a snapshot, resetting any in-flight machinery
    (live dataflow chains, waiting promises) to a quiesced baseline.

:class:`~repro.runtime.agas.component.Component` and every LCO family
provide defaults, so most objects checkpoint for free.

:class:`CheckpointStore` layers the coordinated-snapshot protocol on
top: the resilient drivers quiesce at an epoch boundary (the barrier is
the blocking ``when_all`` over the partitions' step futures -- nothing
else is runnable when it fires), save all partitions as one epoch, and
keep the last ``keep`` epochs.  Saving is not free: each
save/restore charges ``checkpoint.cost_base_s +
checkpoint.cost_per_byte_s * size`` virtual seconds to the calling task
through the cost model, and bumps the runtime's ``/checkpoints{total}``
perfcounters.  On restore the store walks epochs newest-first, skipping
any that fail checksum verification (:class:`CheckpointCorruptionError`)
-- the corruption-fallback contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..errors import (
    CheckpointCorruptionError,
    CheckpointCorruptionWarning,
    CheckpointError,
    ConfigError,
)
from ..runtime import context as ctx
from ..runtime import instrument
from ..runtime.parcel.serialization import deserialize, serialize

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.runtime import Runtime

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "Checkpoint",
    "save_checkpoint",
    "restore_checkpoint",
    "CheckpointStore",
]

#: Bump when the on-disk/wire layout of a checkpoint changes.
CHECKPOINT_FORMAT_VERSION = 1

#: Separates the JSON header from the payload in the byte encoding.
_HEADER_SEP = b"\n"


@dataclass(frozen=True)
class Checkpoint:
    """One immutable, checksummed snapshot of a set of objects.

    ``payload`` is the serialized list of per-object states; ``checksum``
    is its SHA-256 hex digest, recomputed and compared on every restore.
    ``epoch`` and ``virtual_time`` identify *when* (in application steps
    and on the virtual clock) the snapshot was taken.
    """

    payload: bytes
    checksum: str
    epoch: int = 0
    virtual_time: float = 0.0
    version: int = CHECKPOINT_FORMAT_VERSION

    @property
    def size_bytes(self) -> int:
        return len(self.payload)

    def verify(self) -> None:
        """Raise unless this checkpoint is intact and readable."""
        if self.version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format v{self.version} is not supported "
                f"(this build reads v{CHECKPOINT_FORMAT_VERSION})"
            )
        digest = hashlib.sha256(self.payload).hexdigest()
        if digest != self.checksum:
            raise CheckpointCorruptionError(
                f"checkpoint for epoch {self.epoch} failed verification: "
                f"payload hashes to {digest[:12]}..., header says "
                f"{self.checksum[:12]}..."
            )

    # Byte/file encoding ----------------------------------------------------
    def to_bytes(self) -> bytes:
        """Self-describing encoding: JSON header line + raw payload."""
        header = json.dumps(
            {
                "version": self.version,
                "epoch": self.epoch,
                "virtual_time": self.virtual_time,
                "checksum": self.checksum,
            },
            sort_keys=True,
        ).encode("ascii")
        return header + _HEADER_SEP + self.payload

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Checkpoint":
        head, sep, payload = blob.partition(_HEADER_SEP)
        if not sep:
            raise CheckpointError("checkpoint blob has no header line")
        try:
            meta = json.loads(head.decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
        return cls(
            payload=payload,
            checksum=str(meta.get("checksum", "")),
            epoch=int(meta.get("epoch", 0)),
            virtual_time=float(meta.get("virtual_time", 0.0)),
            version=int(meta.get("version", -1)),
        )

    def write(self, path: str | os.PathLike[str]) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def read(cls, path: str | os.PathLike[str]) -> "Checkpoint":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def _capture(obj: Any) -> Any:
    """One object's snapshot: its protocol state, or the object itself."""
    capture = getattr(obj, "checkpoint_state", None)
    if callable(capture):
        return capture()
    return obj


def save_checkpoint(
    *objects: Any, epoch: int = 0, virtual_time: float | None = None
) -> Checkpoint:
    """Snapshot ``objects`` into a new :class:`Checkpoint`.

    Each object contributes ``obj.checkpoint_state()`` when it implements
    the protocol, or its own (picklable) value otherwise -- so plain data
    checkpoints alongside components and LCOs, as in HPX.
    """
    if not objects:
        raise CheckpointError("save_checkpoint needs at least one object")
    if virtual_time is None:
        frame = ctx.current_or_none()
        virtual_time = frame.pool.now if frame is not None and frame.pool else 0.0
    payload = serialize([_capture(obj) for obj in objects])
    return Checkpoint(
        payload=payload,
        checksum=hashlib.sha256(payload).hexdigest(),
        epoch=epoch,
        virtual_time=virtual_time,
    )


def restore_checkpoint(checkpoint: Checkpoint, *objects: Any) -> list[Any]:
    """Verify ``checkpoint`` and restore ``objects`` from it, in order.

    Returns the decoded per-object states.  With no ``objects`` given the
    states are only decoded (read-back of plain-data checkpoints); with
    objects given their count must match the saved count and every object
    must implement ``restore_state``.
    """
    checkpoint.verify()
    states = deserialize(checkpoint.payload)
    if not isinstance(states, list):
        raise CheckpointError("checkpoint payload is not a state list")
    if objects:
        if len(objects) != len(states):
            raise CheckpointError(
                f"checkpoint holds {len(states)} object(s); "
                f"asked to restore {len(objects)}"
            )
        for obj, state in zip(objects, states):
            restore = getattr(obj, "restore_state", None)
            if not callable(restore):
                raise CheckpointError(
                    f"{type(obj).__name__} does not implement restore_state()"
                )
            restore(state)
    return list(states)


class CheckpointStore:
    """Retains the last ``keep`` epoch checkpoints, with cost accounting.

    Bound to a :class:`~repro.runtime.runtime.Runtime`, every save and
    restore charges virtual time through the cost model (knobs
    ``checkpoint.cost_base_s`` / ``checkpoint.cost_per_byte_s``) and
    updates the runtime's checkpoint counters.
    """

    def __init__(self, runtime: "Runtime | None" = None, keep: int = 2) -> None:
        if keep < 1:
            raise ConfigError("keep must be at least 1")
        self.runtime = runtime
        self.keep = keep
        self._epochs: dict[int, Checkpoint] = {}

    # Introspection ---------------------------------------------------------
    def epochs(self) -> list[int]:
        """Retained epoch numbers, oldest first."""
        return sorted(self._epochs)

    def checkpoint(self, epoch: int) -> Checkpoint:
        try:
            return self._epochs[epoch]
        except KeyError:
            raise CheckpointError(f"no retained checkpoint for epoch {epoch}") from None

    # Cost model ------------------------------------------------------------
    def _charge(self, size_bytes: int) -> float:
        if self.runtime is None:
            return 0.0
        config = self.runtime.config
        cost = config.get_float("checkpoint.cost_base_s") + size_bytes * config.get_float(
            "checkpoint.cost_per_byte_s"
        )
        ctx.add_cost(cost)
        return cost

    # Protocol --------------------------------------------------------------
    def save(self, epoch: int, objects: Iterable[Any]) -> Checkpoint:
        """Snapshot ``objects`` as ``epoch`` and prune beyond ``keep``."""
        objs = tuple(objects)
        ckpt = save_checkpoint(*objs, epoch=epoch)
        cost = self._charge(ckpt.size_bytes)
        if self.runtime is not None:
            self.runtime.checkpoints_saved += 1
            self.runtime.checkpoint_bytes_saved += ckpt.size_bytes
            self.runtime.checkpoint_save_time_s += cost
        self._epochs[epoch] = ckpt
        for old in sorted(self._epochs)[: -self.keep]:
            del self._epochs[old]
        return ckpt

    def restore_latest_valid(self, objects: Sequence[Any]) -> Checkpoint:
        """Restore ``objects`` from the newest epoch that verifies.

        Epochs failing checksum verification are skipped (each counted as
        corrupt-skipped; a restore that lands past one counts as one
        fallback); raises :class:`CheckpointCorruptionError` only when
        every retained epoch is corrupt, :class:`CheckpointError` when
        the store is empty.
        """
        if not self._epochs:
            raise CheckpointError("cannot restore: the store holds no checkpoints")
        skipped = False
        for epoch in sorted(self._epochs, reverse=True):
            ckpt = self._epochs[epoch]
            try:
                restore_checkpoint(ckpt, *objects)
            except CheckpointCorruptionError as exc:
                # A skipped epoch is lost recovery ground, never a
                # silent non-event: count it, warn, and surface it as a
                # trace event so dashboards and the tracer both see it.
                self._report_corrupt_skip(epoch, ckpt, exc)
                skipped = True
                continue
            cost = self._charge(ckpt.size_bytes)
            if self.runtime is not None:
                self.runtime.checkpoints_restored += 1
                self.runtime.checkpoint_fallbacks += skipped
                self.runtime.checkpoint_restore_time_s += cost
            return ckpt
        raise CheckpointCorruptionError(
            f"every retained checkpoint ({len(self._epochs)}) failed verification"
        )

    def _report_corrupt_skip(
        self, epoch: int, ckpt: Checkpoint, exc: CheckpointCorruptionError
    ) -> None:
        """A retained epoch failed verification and was skipped."""
        warnings.warn(
            f"checkpoint epoch {epoch} failed verification and was skipped "
            f"during restore; falling back to an older epoch ({exc})",
            CheckpointCorruptionWarning,
            stacklevel=3,
        )
        if self.runtime is None:
            return
        self.runtime.checkpoint_corrupt_skipped += 1
        if instrument.enabled and (probe := instrument.probe) is not None:
            probe.event(
                "checkpoint_corrupt_skipped",
                ckpt.virtual_time,
                args={"epoch": epoch, "size_bytes": ckpt.size_bytes, "level": "warning"},
            )

    def __len__(self) -> int:
        return len(self._epochs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CheckpointStore(epochs={self.epochs()}, keep={self.keep})"
