"""Property: a crash mid-append never corrupts the job journal.

A crash while :meth:`Journal.append` is writing leaves the file
truncated at an arbitrary byte offset -- everything before the cut is
intact (each record was fsync'd before the next began), everything
after it is gone.  For *every* cut point the journal must replay to an
exact prefix of the original history: at most the final, partially
written record is dropped (and reported as a torn tail), no earlier
record is lost, and no terminal transition is duplicated or invented.

Damage that is *not* explainable as a torn tail -- a flipped byte in
the middle of the file -- must refuse to replay loudly instead.
"""

import dataclasses
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.errors import JournalCorruptError
from repro.service import JobState, JobStore, ManualClock, read_journal
from repro.service.jobs import TERMINAL_STATES

# Each trajectory is a valid walk through the job state machine,
# exercising retries (running -> pending -> claimed again) as well as
# every terminal edge.  Index is drawn by hypothesis per job.
_TRAJECTORIES = (
    (),  # stays pending
    (JobState.CLAIMED,),
    (JobState.CLAIMED, JobState.RUNNING),
    (JobState.CLAIMED, JobState.RUNNING, JobState.DONE),
    (JobState.CLAIMED, JobState.RUNNING, JobState.FAILED),
    (JobState.CANCELLED,),
    (
        JobState.CLAIMED,
        JobState.RUNNING,
        JobState.PENDING,  # retry: re-queued after a failed attempt
        JobState.CLAIMED,
        JobState.RUNNING,
        JobState.DONE,
    ),
)


def _build_history(root, trajectories):
    """Drive a fresh store through the drawn trajectories; return its path."""
    path = Path(root) / "jobs.journal"
    store = JobStore(path, clock=ManualClock(), sync=False)
    jobs = []
    for i, _ in enumerate(trajectories):
        job, created = store.submit(
            f"tenant-{i % 2}",
            "stencil1d",
            {"nx": 8, "steps": i},
            dedupe_key=f"key-{i}",
        )
        assert created
        jobs.append(job.job_id)
    # Interleave transitions round-robin so records from different jobs
    # alternate in the journal (a cut mid-file splits several jobs).
    cursors = [list(t) for t in trajectories]
    progressed = True
    while progressed:
        progressed = False
        for job_id, remaining in zip(jobs, cursors):
            if remaining:
                store.transition(job_id, remaining.pop(0))
                progressed = True
    store.close()
    return path


def _fold_states(records):
    """Reference replay: final state per job from raw journal records."""
    states = {}
    for record in records:
        if record["op"] == "submit":
            states[record["job_id"]] = JobState.PENDING
        else:
            states[record["job_id"]] = JobState(record["to"])
    return states


def _terminal_counts(records):
    counts = {}
    for record in records:
        if record["op"] == "transition" and JobState(record["to"]) in TERMINAL_STATES:
            counts[record["job_id"]] = counts.get(record["job_id"], 0) + 1
    return counts


@settings(max_examples=60, deadline=None)
@given(
    picks=st.lists(
        st.integers(min_value=0, max_value=len(_TRAJECTORIES) - 1),
        min_size=1,
        max_size=5,
    ),
    data=st.data(),
)
def test_any_crash_point_replays_to_an_exact_prefix(picks, data):
    with tempfile.TemporaryDirectory() as root:
        path = _build_history(root, [_TRAJECTORIES[p] for p in picks])
        raw = path.read_bytes()
        full_records, full_torn = read_journal(path)
        assert not full_torn

        cut = data.draw(st.integers(min_value=0, max_value=len(raw)), label="cut")
        torn_path = Path(root) / "torn.journal"
        torn_path.write_bytes(raw[:cut])

        records, torn = read_journal(torn_path)
        # Replay is an exact prefix: nothing lost before the cut, nothing
        # invented after it.
        assert records == full_records[: len(records)]
        # At most ONE record -- the final, partially written one -- is
        # dropped relative to the bytes that survived.
        boundaries = {0}
        offset = 0
        for line in raw.splitlines(keepends=True):
            offset += len(line)
            boundaries.add(offset)
        assert torn == (cut not in boundaries)
        assert len(full_records) - len(records) == _records_cut(raw, cut)

        # The store itself accepts the torn journal and agrees with a
        # plain fold of the surviving records.
        store = JobStore(torn_path, clock=ManualClock(), sync=False)
        assert store.torn_tail_dropped == torn
        folded = _fold_states(records)
        assert {job.job_id: job.state for job in store.jobs()} == folded
        # Terminal transitions are exactly-once in every prefix: a job is
        # terminal in the store iff the prefix holds exactly one terminal
        # record for it, and never more than one.
        counts = _terminal_counts(records)
        assert all(count == 1 for count in counts.values())
        assert set(counts) == {
            job_id for job_id, state in folded.items() if state in TERMINAL_STATES
        }
        store.close()


def _records_cut(raw, cut):
    """How many *complete* records the truncation at ``cut`` removed."""
    return raw[cut:].count(b"\n")


@settings(max_examples=60, deadline=None)
@given(
    picks=st.lists(
        st.integers(min_value=0, max_value=len(_TRAJECTORIES) - 1),
        min_size=2,
        max_size=4,
    ),
    data=st.data(),
)
def test_mid_file_damage_is_refused_not_replayed(picks, data):
    """A flipped byte anywhere before the final record refuses to replay."""
    with tempfile.TemporaryDirectory() as root:
        path = _build_history(root, [_TRAJECTORIES[p] for p in picks])
        raw = path.read_bytes()
        lines = raw.splitlines(keepends=True)
        assert len(lines) >= 2
        final_start = len(raw) - len(lines[-1])

        offset = data.draw(
            st.integers(min_value=0, max_value=final_start - 1), label="offset"
        )
        flip = bytes([raw[offset] ^ 0x01])
        damaged = Path(root) / "damaged.journal"
        damaged.write_bytes(raw[:offset] + flip + raw[offset + 1 :])

        try:
            JobStore(damaged, clock=ManualClock(), sync=False)
        except JournalCorruptError:
            pass
        else:
            raise AssertionError(
                "damaged non-final record replayed silently instead of raising"
            )


@settings(max_examples=25, deadline=None)
@given(
    picks=st.lists(
        st.integers(min_value=0, max_value=len(_TRAJECTORIES) - 1),
        min_size=1,
        max_size=4,
    )
)
def test_replay_is_deterministic_and_append_preserving(picks):
    """Two replays of one journal agree record-for-record, and reopening a
    store then appending continues the history without disturbing it."""
    with tempfile.TemporaryDirectory() as root:
        path = _build_history(root, [_TRAJECTORIES[p] for p in picks])
        first = JobStore(path, clock=ManualClock(), sync=False)
        second = JobStore(path, clock=ManualClock(), sync=False)
        snap = lambda s: [dataclasses.asdict(job) for job in s.jobs()]  # noqa: E731
        assert snap(first) == snap(second)
        before = snap(first)
        second.close()

        # Appending through the reopened store only ever grows the file.
        job, created = first.submit("tenant-z", "faulty", {}, dedupe_key="extra")
        assert created
        records, torn = read_journal(path)
        assert not torn
        assert records[-1]["op"] == "submit"
        assert records[-1]["job_id"] == job.job_id
        reopened = JobStore(path, clock=ManualClock(), sync=False)
        assert snap(reopened) == snap(first)
        assert before == snap(first)[:-1] or before == [
            r for r in snap(first) if r["job_id"] != job.job_id
        ]
        first.close()
        reopened.close()
