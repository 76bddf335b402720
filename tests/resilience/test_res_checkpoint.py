"""Checkpoint API tests: round-trips, corruption handling, the store.

Covers the HPX-style ``save_checkpoint``/``restore_checkpoint`` surface,
checksum verification (:class:`CheckpointCorruptionError` + fallback to
an older epoch), the channel's two-method checkpoint protocol, and
the virtual-time cost charged per save/restore.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import Config
from repro.errors import (
    CheckpointCorruptionError,
    CheckpointCorruptionWarning,
    CheckpointError,
    RuntimeStateError,
)
from repro.resilience import (
    Checkpoint,
    CheckpointStore,
    restore_checkpoint,
    save_checkpoint,
)
from repro.runtime.agas.component import Component
from repro.runtime.lco import Channel
from repro.runtime.runtime import Runtime


class Box:
    """Minimal object implementing the two-method checkpoint protocol."""

    def __init__(self, value):
        self.value = value

    def checkpoint_state(self):
        return {"value": self.value}

    def restore_state(self, state):
        self.value = state["value"]


class Segment(Component):
    def __init__(self, data):
        super().__init__()
        self.data = np.array(data, dtype=np.float64)


class Segments:
    """A multi-part object: its components checkpoint as one state list."""

    def __init__(self, rt, *parts):
        self.parts = [Segment(part) for part in parts]
        self.gids = [
            rt.new_component(part, locality_id=i % rt.n_localities)
            for i, part in enumerate(self.parts)
        ]

    def checkpoint_state(self):
        return [part.checkpoint_state() for part in self.parts]

    def restore_state(self, state):
        for part, part_state in zip(self.parts, state):
            part.restore_state(part_state)


# Checkpoint object ----------------------------------------------------------


def test_save_restore_round_trip_plain_values():
    ckpt = save_checkpoint([1, 2, 3], "abc", epoch=4)
    assert ckpt.epoch == 4
    assert ckpt.size_bytes == len(ckpt.payload)
    assert restore_checkpoint(ckpt) == [[1, 2, 3], "abc"]


def test_save_restore_round_trip_protocol_objects():
    box = Box(value=np.arange(5.0))
    ckpt = save_checkpoint(box)
    box.value[:] = -1.0
    restore_checkpoint(ckpt, box)
    assert np.array_equal(box.value, np.arange(5.0))


def test_save_restore_round_trip_multi_part_object():
    """Components on two localities save and restore as one object, and
    keep their AGAS identity."""
    with Runtime(n_localities=2, workers_per_locality=1) as rt:
        segments = Segments(rt, [1.0, 2.0], [3.0], [4.0, 5.0])
        ckpt = save_checkpoint(segments)
        for part in segments.parts:
            part.data[:] = -1.0
        restore_checkpoint(ckpt, segments)
        assert [part.data.tolist() for part in segments.parts] == [[1.0, 2.0], [3.0], [4.0, 5.0]]
        assert [part.gid for part in segments.parts] == segments.gids
        assert [rt.agas.home_of(gid) for gid in segments.gids] == [0, 1, 0]


def test_restore_positional_count_mismatch_raises():
    ckpt = save_checkpoint(Box(1), Box(2))
    with pytest.raises(CheckpointError):
        restore_checkpoint(ckpt, Box(0))


def test_to_bytes_from_bytes_round_trip():
    ckpt = save_checkpoint({"k": [1.5, 2.5]}, epoch=7, virtual_time=3.25)
    again = Checkpoint.from_bytes(ckpt.to_bytes())
    assert again == ckpt
    assert restore_checkpoint(again) == [{"k": [1.5, 2.5]}]


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "epoch.ckpt"
    ckpt = save_checkpoint([complex(1, 2)], epoch=1)
    ckpt.write(path)
    assert restore_checkpoint(Checkpoint.read(path)) == [[complex(1, 2)]]


def test_corrupted_payload_fails_checksum():
    ckpt = save_checkpoint([1, 2, 3])
    bad = dataclasses.replace(ckpt, payload=ckpt.payload[:-1] + b"\x00")
    with pytest.raises(CheckpointCorruptionError):
        restore_checkpoint(bad)


def test_version_mismatch_is_checkpoint_error_not_corruption():
    ckpt = save_checkpoint([1])
    future_version = dataclasses.replace(ckpt, version=99)
    with pytest.raises(CheckpointError) as excinfo:
        restore_checkpoint(future_version)
    assert not isinstance(excinfo.value, CheckpointCorruptionError)


# CheckpointStore ------------------------------------------------------------


def test_store_restores_latest_epoch():
    store = CheckpointStore(keep=3)
    box = Box(0)
    for epoch in (0, 5, 10):
        box.value = epoch
        store.save(epoch, [box])
    box.value = -1
    assert store.restore_latest_valid([box]).epoch == 10
    assert box.value == 10


def test_store_falls_back_to_previous_epoch_on_corruption():
    store = CheckpointStore(keep=3)
    box = Box(0)
    for epoch in (0, 5, 10):
        box.value = epoch
        store.save(epoch, [box])
    newest = store.checkpoint(10)
    store._epochs[10] = dataclasses.replace(
        newest, payload=newest.payload[:-1] + b"\x00"
    )
    with pytest.warns(CheckpointCorruptionWarning):
        assert store.restore_latest_valid([box]).epoch == 5
    assert box.value == 5


def test_store_corrupt_skip_warns_counts_and_emits_event(seam_events):
    """A skipped corrupt epoch is never silent: warning + counter + event."""
    with Runtime(n_localities=1, workers_per_locality=1) as rt:
        store = CheckpointStore(runtime=rt, keep=3)
        box = Box(0)

        def job():
            for epoch in (0, 5, 10):
                box.value = epoch
                store.save(epoch, [box])
            newest = store.checkpoint(10)
            store._epochs[10] = dataclasses.replace(
                newest, payload=newest.payload[:-1] + b"\x00"
            )
            with pytest.warns(CheckpointCorruptionWarning, match="epoch 10"):
                assert store.restore_latest_valid([box]).epoch == 5

        rt.run(job)
        assert rt.checkpoint_corrupt_skipped == 1
        assert rt.checkpoint_fallbacks == 1
        kind, _, args = seam_events.events[0]
        assert kind == "checkpoint_corrupt_skipped"
        assert args["epoch"] == 10
        assert args["level"] == "warning"

        from repro.runtime.perfcounters import query

        assert query(rt, "/checkpoints{total}/count/corrupt-skipped") == 1.0


def test_fallbacks_count_restores_not_skipped_epochs():
    """Two corrupt epochs skipped by one restore: two corrupt-skipped,
    one fallback."""
    from repro.runtime.perfcounters import query

    with Runtime(n_localities=1, workers_per_locality=1) as rt:
        store = CheckpointStore(runtime=rt, keep=3)
        box = Box(0)

        def job():
            for epoch in (0, 5, 10):
                box.value = epoch
                store.save(epoch, [box])
            for epoch in (5, 10):
                ckpt = store.checkpoint(epoch)
                store._epochs[epoch] = dataclasses.replace(ckpt, payload=b"garbage")
            with pytest.warns(CheckpointCorruptionWarning):
                assert store.restore_latest_valid([box]).epoch == 0

        rt.run(job)
        assert query(rt, "/checkpoints{total}/count/corrupt-skipped") == 2.0
        assert query(rt, "/checkpoints{total}/count/fallbacks") == 1.0


def test_tracer_records_corrupt_skip_event():
    from repro.observability.tracer import Tracer

    tracer = Tracer()
    with Runtime(n_localities=1, workers_per_locality=1) as rt:
        store = CheckpointStore(runtime=rt, keep=2)
        box = Box(0)

        def job():
            store.save(0, [box])
            store.save(1, [box])
            bad = store.checkpoint(1)
            store._epochs[1] = dataclasses.replace(bad, payload=b"garbage")
            with pytest.warns(CheckpointCorruptionWarning):
                store.restore_latest_valid([box])

        with tracer.attach(rt):
            rt.run(job)
    kinds = [event.kind for event in tracer.events]
    assert "checkpoint_corrupt_skipped" in kinds


def test_store_all_epochs_corrupt_raises_corruption():
    store = CheckpointStore(keep=2)
    box = Box(0)
    store.save(0, [box])
    ckpt = store.checkpoint(0)
    store._epochs[0] = dataclasses.replace(ckpt, payload=b"garbage")
    with pytest.raises(CheckpointCorruptionError), pytest.warns(
        CheckpointCorruptionWarning
    ):
        store.restore_latest_valid([box])


def test_store_empty_raises_checkpoint_error():
    with pytest.raises(CheckpointError):
        CheckpointStore().restore_latest_valid([Box(0)])


def test_store_prunes_to_keep_limit():
    store = CheckpointStore(keep=2)
    box = Box(0)
    for epoch in range(5):
        store.save(epoch, [box])
    assert store.epochs() == [3, 4]
    assert len(store) == 2


def test_store_counts_and_costs_charge_the_runtime():
    config = Config(checkpoint__cost_base_s=0.5, checkpoint__cost_per_byte_s=0.0)
    with Runtime(n_localities=1, workers_per_locality=1, config=config) as rt:
        store = CheckpointStore(runtime=rt)
        box = Box(1)

        def job():
            store.save(0, [box])
            store.save(1, [box])
            store.restore_latest_valid([box])

        rt.run(job)
        assert rt.checkpoints_saved == 2
        assert rt.checkpoints_restored == 1
        assert rt.checkpoint_fallbacks == 0
        assert rt.checkpoint_bytes_saved > 0
        assert rt.checkpoint_save_time_s == pytest.approx(1.0)
        assert rt.checkpoint_restore_time_s == pytest.approx(0.5)
        # The charge flows into the virtual clock like any other cost.
        assert rt.makespan >= 1.5


# LCO round-trips ------------------------------------------------------------


def test_channel_checkpoint_round_trip():
    chan = Channel(name="work")
    chan.set(1)
    chan.set(2)
    ckpt = save_checkpoint(chan)
    chan.get().get()
    chan.set(99)
    restore_checkpoint(ckpt, chan)
    assert chan.get().get() == 1
    assert chan.get().get() == 2
    assert len(chan) == 0
    assert not chan.closed


def test_channel_restore_with_pending_reader_raises():
    chan = Channel()
    ckpt = save_checkpoint(chan)
    chan.get()  # parks a reader
    with pytest.raises(RuntimeStateError):
        restore_checkpoint(ckpt, chan)
