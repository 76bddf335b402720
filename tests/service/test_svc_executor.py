"""JobRunner: epoch checkpointing, crash-resume bit-identity, corrupt skip."""

import os

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.resilience.checkpoint import Checkpoint, restore_checkpoint
from repro.service import JobRunner, job_digest
from repro.service.jobs import Job
from repro.stencil import Heat1DParams, analytic_heat_profile, heat1d_reference


def _oracle_digest(nx, steps, mode):
    """The job's answer from the np.roll oracle, which no job runs."""
    field = analytic_heat_profile(nx, mode=mode)
    return job_digest(heat1d_reference(field, steps, Heat1DParams()))


def _job(job_id="job-x", kind="stencil1d", attempts=1, **params):
    return Job(
        job_id=job_id,
        tenant="t",
        kind=kind,
        params=params,
        dedupe_key=None,
        max_attempts=3,
        submitted_at=0.0,
        attempts=attempts,
    )


#: Small-but-real stencil workload: 3 epochs of 4 steps at nx=16.
STENCIL = dict(nx=16, steps=12, localities=1, distributed=False)


class _Interrupt(Exception):
    """Stands in for SIGKILL: the attempt dies after a checkpoint lands."""


class TestEpochTrail:
    def test_checkpoints_every_epoch_and_prunes(self, tmp_path):
        epochs_seen = []
        runner = JobRunner(
            tmp_path,
            epoch_steps=4,
            keep_epochs=2,
            after_epoch=lambda job_id, steps: epochs_seen.append(steps),
        )
        result = runner.run(_job(**STENCIL))
        assert epochs_seen == [4, 8, 12]
        assert result["steps"] == 12 and result["epochs"] == 3
        assert result["resumed_at"] is None
        # Only keep_epochs checkpoint files survive the prune.
        assert runner._saved_epochs("job-x") == [8, 12]

    def test_partial_final_epoch(self, tmp_path):
        runner = JobRunner(tmp_path, epoch_steps=5)
        result = runner.run(_job(**dict(STENCIL, steps=12)))
        assert result["epochs"] == 3  # 5 + 5 + 2
        assert runner._saved_epochs("job-x") == [10, 12]

    def test_cleanup_removes_the_trail(self, tmp_path):
        runner = JobRunner(tmp_path, epoch_steps=4)
        runner.run(_job(**STENCIL))
        runner.cleanup("job-x")
        assert runner._saved_epochs("job-x") == []
        assert runner.restore_latest("job-x") is None


def _count_calls(monkeypatch, name):
    """Record the path of every ``os.<name>`` call from now on."""
    paths = []
    real = getattr(os, name)

    def counted(path, *args, **kwargs):
        paths.append(os.fspath(path))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(os, name, counted)
    return paths


def _stop_at(steps):
    def hook(job_id, steps_done):
        if steps_done == steps:
            raise _Interrupt

    return hook


class TestTrailScans:
    """An attempt lists its job directory once and creates it at most
    once; an epoch then costs its checkpoint write and its prune."""

    @pytest.mark.parametrize("resumed", [False, True])
    def test_one_listing_and_at_most_one_makedirs_per_attempt(
        self, tmp_path, monkeypatch, resumed
    ):
        runner = JobRunner(tmp_path, epoch_steps=2, keep_epochs=2)
        if resumed:
            runner.after_epoch = _stop_at(4)
            with pytest.raises(_Interrupt):
                runner.run(_job(**STENCIL))
            runner.after_epoch = None
        listed = _count_calls(monkeypatch, "listdir")
        made = _count_calls(monkeypatch, "makedirs")
        result = runner.run(_job(attempts=2, **STENCIL))
        assert result["epochs"] == (4 if resumed else 6)
        assert listed == [runner.job_dir("job-x")]
        assert len(made) <= 1
        assert runner._saved_epochs("job-x") == [10, 12]

    def test_resume_over_stale_and_corrupt_epochs_keeps_keep_epochs(self, tmp_path):
        job = dict(STENCIL, steps=20)
        older = JobRunner(tmp_path, epoch_steps=4, keep_epochs=3, after_epoch=_stop_at(12))
        with pytest.raises(_Interrupt):
            older.run(_job(**job))
        runner = JobRunner(tmp_path, epoch_steps=4, keep_epochs=2)
        assert runner._saved_epochs("job-x") == [4, 8, 12]
        with open(runner._epoch_path("job-x", 12), "wb") as fh:
            fh.write(b"torn")
        result = runner.run(_job(attempts=2, **job))
        assert result["resumed_at"] == 8 and runner.corrupt_skipped == 1
        assert result["digest"] == _oracle_digest(nx=16, steps=20, mode=1)
        assert sorted(os.listdir(runner.job_dir("job-x"))) == [
            "epoch-000016.ckpt",
            "epoch-000020.ckpt",
        ]
        for steps_done in (16, 20):
            ckpt = Checkpoint.read(runner._epoch_path("job-x", steps_done))
            assert restore_checkpoint(ckpt)[1] == steps_done


class TestResume:
    def test_interrupted_resume_is_bit_identical(self, tmp_path):
        reference = JobRunner(tmp_path / "ref", epoch_steps=4)
        expected = reference.run(_job(**STENCIL))["digest"]

        def die_after_first_epoch(job_id, steps_done):
            if steps_done == 4:
                raise _Interrupt

        runner = JobRunner(
            tmp_path / "chaos", epoch_steps=4, after_epoch=die_after_first_epoch
        )
        with pytest.raises(_Interrupt):
            runner.run(_job(attempts=1, **STENCIL))
        # Re-drive (attempt 2): resumes from the surviving checkpoint and
        # produces a result bit-identical to the uninterrupted run.
        runner.after_epoch = None
        result = runner.run(_job(attempts=2, **STENCIL))
        assert result["resumed_at"] == 4
        assert result["digest"] == expected

    def test_corrupt_newest_checkpoint_is_skipped_not_trusted(self, tmp_path):
        runner = JobRunner(tmp_path, epoch_steps=4, keep_epochs=3)
        expected = runner.run(_job(**STENCIL))["digest"]
        # Bit-rot the newest checkpoint; resume must fall back to the
        # next older epoch and still converge to the same answer.
        newest = runner._epoch_path("job-x", 12)
        blob = bytearray(open(newest, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(newest, "wb").write(bytes(blob))
        field, steps_done = runner.restore_latest("job-x")
        assert steps_done == 8
        assert runner.corrupt_skipped == 1
        result = runner.run(_job(attempts=2, **STENCIL))
        assert result["resumed_at"] == 8
        assert result["digest"] == expected

    def test_all_checkpoints_corrupt_restarts_from_scratch(self, tmp_path):
        runner = JobRunner(tmp_path, epoch_steps=4, keep_epochs=3)
        runner.run(_job(**STENCIL))
        for steps_done in runner._saved_epochs("job-x"):
            path = runner._epoch_path("job-x", steps_done)
            open(path, "wb").write(b"not a checkpoint")
        assert runner.restore_latest("job-x") is None
        assert runner.corrupt_skipped == 3

    def test_shape_mismatch_is_refused(self, tmp_path):
        runner = JobRunner(tmp_path, epoch_steps=4)
        runner.run(_job(**STENCIL))
        with pytest.raises(ValidationError, match="does not match nx"):
            runner.run(_job(attempts=2, **dict(STENCIL, nx=32)))


class TestKinds:
    def test_faulty_fails_then_succeeds(self, tmp_path):
        runner = JobRunner(tmp_path)
        with pytest.raises(RuntimeError, match="injected failure"):
            runner.run(_job(kind="faulty", attempts=1, fail_attempts=1))
        assert runner.run(_job(kind="faulty", attempts=2, fail_attempts=1))

    def test_unknown_kind_refused(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown job kind"):
            JobRunner(tmp_path).run(_job(kind="nope"))

    def test_distributed_matches_reference(self, tmp_path):
        # Both job paths run the solvers' kernel, so each is checked
        # against the independent np.roll oracle, not against the other.
        want = _oracle_digest(nx=16, steps=6, mode=1)
        local = JobRunner(tmp_path / "a", epoch_steps=6).run(
            _job(nx=16, steps=6, distributed=False)
        )
        dist = JobRunner(tmp_path / "b", epoch_steps=6).run(
            _job(nx=16, steps=6, localities=2, distributed=True)
        )
        assert local["digest"] == want
        assert dist["digest"] == want

    @pytest.mark.parametrize("mode", range(1, 9))
    def test_bench_job_shape_matches_the_oracle(self, tmp_path, mode):
        # The benchmark's job: nx=256, 40 steps in epochs of 10.
        shape = dict(nx=256, steps=40, mode=mode)
        want = _oracle_digest(**shape)
        local = JobRunner(tmp_path / "local", epoch_steps=10).run(
            _job(distributed=False, **shape)
        )
        dist = JobRunner(tmp_path / "dist", epoch_steps=10).run(
            _job(localities=2, distributed=True, **shape)
        )

        def die_at_epoch_20(job_id, steps_done):
            if steps_done == 20:
                raise _Interrupt

        runner = JobRunner(tmp_path / "resumed", epoch_steps=10, after_epoch=die_at_epoch_20)
        with pytest.raises(_Interrupt):
            runner.run(_job(distributed=False, **shape))
        runner.after_epoch = None
        resumed = runner.run(_job(attempts=2, distributed=False, **shape))
        assert resumed["resumed_at"] == 20 and resumed["epochs"] == 2
        assert local["digest"] == dist["digest"] == resumed["digest"] == want

    def test_validation(self, tmp_path):
        with pytest.raises(ValidationError):
            JobRunner(tmp_path, epoch_steps=0)
        with pytest.raises(ValidationError):
            JobRunner(tmp_path, keep_epochs=0)


def test_job_digest_is_canonical():
    field = np.linspace(0.0, 1.0, 8)
    assert job_digest(field) == job_digest(field.copy())
    assert job_digest(field) == job_digest(np.asarray(field, dtype=np.float64))
    assert job_digest(field) != job_digest(field + 1e-12)
