"""Runs one job attempt, checkpointing every epoch.

The executor is where the job service meets the runtime: a job attempt
drives the distributed heat solver in *epochs* of ``epoch_steps`` time
steps, each epoch in a fresh :class:`~repro.runtime.runtime.Runtime`,
and writes a checksummed :class:`~repro.resilience.checkpoint.Checkpoint`
of the assembled field to the job's work directory after every epoch.

That file trail is what makes re-driving crash-safe: a re-claimed job
(worker SIGKILLed, lease expired) resumes from its newest *intact*
checkpoint -- corrupt epochs are skipped, not trusted -- and replays
only the remaining epochs.  Because the stencil update is pure,
deterministic NumPy and epoch boundaries depend only on the job
parameters, an interrupted-and-resumed job produces a result
bit-identical to an uninterrupted run, which the chaos suite asserts
via :func:`job_digest`.

An attempt lists the job's directory once, in that resume scan, and
creates it at most once.  Each epoch then writes its file and prunes
the attempt's in-memory copy of the trail, so an epoch costs its
checkpoint write (and the removal of the file it retires) and no
directory scan.
"""

from __future__ import annotations

import bisect
import hashlib
import os
from typing import Any, Callable, Optional

import numpy as np

from ..errors import ValidationError
from ..resilience.checkpoint import (
    Checkpoint,
    CheckpointCorruptionError,
    CheckpointError,
    restore_checkpoint,
    save_checkpoint,
)
from ..runtime.runtime import Runtime
from ..stencil.heat1d import DistributedHeat1D, Heat1DParams, heat1d_steps
from ..stencil.validation import analytic_heat_profile
from .jobs import Job

__all__ = ["JobRunner", "job_digest"]

#: Per-epoch hook, called after each checkpoint lands: (job_id, steps_done).
EpochHook = Callable[[str, int], None]


def job_digest(field: np.ndarray) -> str:
    """Canonical digest of a solution field (bit-identity witness)."""
    data = np.ascontiguousarray(field, dtype=np.float64)
    return hashlib.sha256(data).hexdigest()


class JobRunner:
    """Executes job attempts; owns the per-job checkpoint directories."""

    def __init__(
        self,
        work_dir: str | os.PathLike[str],
        *,
        epoch_steps: int = 10,
        keep_epochs: int = 2,
        after_epoch: Optional[EpochHook] = None,
    ) -> None:
        if epoch_steps < 1:
            raise ValidationError("epoch_steps must be >= 1")
        if keep_epochs < 1:
            raise ValidationError("keep_epochs must be >= 1")
        self.work_dir = os.fspath(work_dir)
        self.epoch_steps = epoch_steps
        self.keep_epochs = keep_epochs
        self.after_epoch = after_epoch
        #: Corrupt checkpoint files skipped while resuming (all jobs).
        self.corrupt_skipped = 0

    # ------------------------------------------------------------------
    # checkpoint file trail

    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.work_dir, job_id)

    def _epoch_path(self, job_id: str, steps_done: int) -> str:
        return os.path.join(self.job_dir(job_id), f"epoch-{steps_done:06d}.ckpt")

    def _saved_epochs(self, job_id: str) -> list[int]:
        try:
            names = os.listdir(self.job_dir(job_id))
        except FileNotFoundError:
            return []
        epochs = []
        for name in names:
            if name.startswith("epoch-") and name.endswith(".ckpt"):
                try:
                    epochs.append(int(name[len("epoch-") : -len(".ckpt")]))
                except ValueError:
                    continue
        return sorted(epochs)

    def _checkpoint(
        self, job_id: str, field: np.ndarray, steps_done: int, trail: list[int]
    ) -> None:
        """Write epoch ``steps_done`` and prune to the newest
        ``keep_epochs``; ``trail`` is the attempt's sorted list of the
        epochs on disk, kept in step with the directory."""
        ckpt = save_checkpoint(field, steps_done, epoch=steps_done)
        ckpt.write(self._epoch_path(job_id, steps_done))
        if steps_done not in trail:  # listed already if it replaced a corrupt file
            bisect.insort(trail, steps_done)
        for old in trail[: -self.keep_epochs]:
            try:
                os.remove(self._epoch_path(job_id, old))
            except OSError:  # pragma: no cover - best-effort prune
                pass
        del trail[: -self.keep_epochs]

    def restore_latest(
        self, job_id: str, trail: Optional[list[int]] = None
    ) -> Optional[tuple[np.ndarray, int]]:
        """Newest intact ``(field, steps_done)``; None for a fresh job.

        A checkpoint left torn or bit-rotted by a crash is *skipped*
        (counted in ``corrupt_skipped``), never trusted: the attempt
        simply resumes from the next older epoch, or from scratch.
        ``trail`` is the job's epochs on disk when the caller has just
        listed them.
        """
        if trail is None:
            trail = self._saved_epochs(job_id)
        for steps_done in reversed(trail):
            path = self._epoch_path(job_id, steps_done)
            try:
                ckpt = Checkpoint.read(path)
                field, saved_steps = restore_checkpoint(ckpt)
            except (CheckpointCorruptionError, CheckpointError, OSError, ValueError):
                self.corrupt_skipped += 1
                continue
            return np.asarray(field, dtype=np.float64), int(saved_steps)
        return None

    # ------------------------------------------------------------------
    # kinds

    def run(self, job: Job) -> dict[str, Any]:
        """Drive one attempt of ``job`` to completion; returns its result.

        Raises whatever the workload raises -- the service turns that
        into a retry (with backoff) or a terminal ``failed`` with cause.
        """
        run_kind = self.KINDS.get(job.kind)
        if run_kind is None:
            raise ValidationError(f"unknown job kind {job.kind!r}")
        return run_kind(self, job)

    def _run_faulty(self, job: Job) -> dict[str, Any]:
        """Test workload: fails deterministically for the first N attempts."""
        fail_attempts = int(job.params.get("fail_attempts", 0))
        if job.attempts <= fail_attempts:
            raise RuntimeError(
                f"injected failure (attempt {job.attempts}/{fail_attempts})"
            )
        return {"digest": "ok", "steps": 0, "epochs": 0, "resumed_at": None}

    def _run_stencil1d(self, job: Job) -> dict[str, Any]:
        params = job.params
        nx = int(params.get("nx", 64))
        total_steps = int(params.get("steps", 50))
        localities = int(params.get("localities", 2))
        parts_per_locality = int(params.get("parts_per_locality", 1))
        mode = int(params.get("mode", 1))
        distributed = bool(params.get("distributed", True))
        heat = Heat1DParams()
        if total_steps < 0:
            raise ValidationError("steps must be non-negative")

        trail = self._saved_epochs(job.job_id)  # the attempt's one listing
        resumed = self.restore_latest(job.job_id, trail)
        if resumed is not None:
            field, steps_done = resumed
            if field.shape != (nx,):
                raise ValidationError(
                    f"checkpoint field shape {field.shape} does not match nx={nx}"
                )
        else:
            field, steps_done = analytic_heat_profile(nx, mode=mode), 0

        if steps_done < total_steps:
            os.makedirs(self.job_dir(job.job_id), exist_ok=True)
        epochs_run = 0
        while steps_done < total_steps:
            segment = min(self.epoch_steps, total_steps - steps_done)
            field = self._run_segment(
                field, segment, heat, localities, parts_per_locality, distributed
            )
            steps_done += segment
            epochs_run += 1
            self._checkpoint(job.job_id, field, steps_done, trail)
            if self.after_epoch is not None:
                self.after_epoch(job.job_id, steps_done)
        return {
            "digest": job_digest(field),
            "steps": total_steps,
            "epochs": epochs_run,
            "resumed_at": None if resumed is None else int(resumed[1]),
        }

    def _run_segment(
        self,
        field: np.ndarray,
        steps: int,
        heat: Heat1DParams,
        localities: int,
        parts_per_locality: int,
        distributed: bool,
    ) -> np.ndarray:
        if not distributed:
            return heat1d_steps(field, steps, heat)
        with Runtime(
            n_localities=localities, workers_per_locality=2
        ) as runtime:
            solver = DistributedHeat1D(
                runtime, len(field), heat, partitions_per_locality=parts_per_locality
            )
            solver.initialize(field)
            return runtime.run(lambda: solver.run(steps))

    #: Job kind -> the method :meth:`run` drives one attempt with (also
    #: what ``repro jobs submit --kind`` offers).
    KINDS = {"stencil1d": _run_stencil1d, "faulty": _run_faulty}

    # ------------------------------------------------------------------

    def cleanup(self, job_id: str) -> None:
        """Remove a finished job's checkpoint trail (best effort)."""
        directory = self.job_dir(job_id)
        for steps_done in self._saved_epochs(job_id):
            try:
                os.remove(self._epoch_path(job_id, steps_done))
            except OSError:  # pragma: no cover
                pass
        try:
            os.rmdir(directory)
        except OSError:
            pass
