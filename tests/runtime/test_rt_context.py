"""Tests for the execution-context stack and errors hierarchy."""

import pytest

from repro import errors
from repro.errors import ReproError, RuntimeStateError
from repro.runtime import context as ctx


class TestContextStack:
    def test_current_outside_runtime_raises(self):
        if ctx.current_or_none() is None:
            with pytest.raises(RuntimeStateError):
                ctx.current()

    def test_push_pop_balance(self):
        frame = ctx.ExecutionContext()
        ctx.push(frame)
        assert ctx.current() is frame
        assert ctx.pop() is frame

    def test_pop_empty_raises(self):
        while ctx.current_or_none() is not None:  # pragma: no cover - safety
            ctx.pop()
        with pytest.raises(RuntimeStateError):
            ctx.pop()

    def test_nesting_order(self):
        outer, inner = ctx.ExecutionContext(), ctx.ExecutionContext()
        ctx.push(outer)
        ctx.push(inner)
        assert ctx.current() is inner
        ctx.pop()
        assert ctx.current() is outer
        ctx.pop()

    def test_add_cost_outside_task_is_noop(self):
        ctx.add_cost(1.0)  # must not raise

    def test_add_cost_negative_rejected(self):
        with pytest.raises(RuntimeStateError):
            ctx.add_cost(-1.0)

    def test_here_without_locality_raises(self):
        ctx.push(ctx.ExecutionContext())
        try:
            with pytest.raises(RuntimeStateError):
                ctx.here()
        finally:
            ctx.pop()

    def test_current_task_none_outside_tasks(self):
        assert ctx.current_task() is None


class TestErrorHierarchy:
    def test_every_error_derives_from_repro_error(self):
        # Warnings must subclass Warning (Python requirement), so the
        # exported hierarchy is: ReproError for raisables, Warning for
        # the rest (e.g. CheckpointCorruptionWarning).
        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, (ReproError, Warning)), name

    def test_specific_parentage(self):
        assert issubclass(errors.FutureAlreadySetError, errors.FutureError)
        assert issubclass(errors.BrokenPromiseError, errors.FutureError)
        assert issubclass(errors.UnknownGidError, errors.AgasError)
        assert issubclass(errors.MigrationError, errors.AgasError)
        assert issubclass(errors.SerializationError, errors.ParcelError)
        assert issubclass(errors.PinningError, errors.TopologyError)
        assert issubclass(errors.LayoutError, errors.SimdError)

    def test_catching_the_base_catches_everything(self):
        with pytest.raises(ReproError):
            raise errors.DeadlockError("x")
        with pytest.raises(ReproError):
            raise errors.ChannelClosedError("y")
