"""Unit tests for parallel algorithms and execution policies."""

import pytest

from repro.errors import RuntimeStateError
from repro.runtime import for_each, par, seq
from repro.runtime.algorithms import auto_chunk_size, partition


# Policies ----------------------------------------------------------------------

def test_policy_flags():
    assert not seq.parallel
    assert par.parallel


def test_with_chunk_size():
    assert par.with_chunk_size(16).chunk_size == 16
    assert par.chunk_size is None  # original is untouched
    with pytest.raises(RuntimeStateError):
        par.with_chunk_size(0)


# Partitioner --------------------------------------------------------------------

def test_auto_chunk_size_targets_chunks_per_worker():
    # 1000 items / (4 workers x 4) = 62.5 -> 63.
    assert auto_chunk_size(1000, 4) == 63


def test_auto_chunk_size_min_chunk():
    assert auto_chunk_size(10, 4, min_chunk=8) == 8
    assert auto_chunk_size(0, 4) == 1


def test_auto_chunk_size_validation():
    with pytest.raises(RuntimeStateError):
        auto_chunk_size(-1, 2)
    with pytest.raises(RuntimeStateError):
        auto_chunk_size(1, 0)
    with pytest.raises(RuntimeStateError):
        auto_chunk_size(1, 1, min_chunk=0)


def test_partition_covers_range_once():
    chunks = partition(3, 20, 6)
    flat = [i for c in chunks for i in c]
    assert flat == list(range(3, 20))
    assert [len(c) for c in chunks] == [6, 6, 5]


def test_partition_empty():
    assert partition(5, 5, 3) == []


def test_partition_validation():
    with pytest.raises(RuntimeStateError):
        partition(0, 10, 0)
    with pytest.raises(RuntimeStateError):
        partition(10, 0, 1)


# for_each ----------------------------------------------------------------

def test_for_each_seq_outside_runtime():
    out = []
    for_each(seq, [10, 20, 30], out.append)
    assert out == [10, 20, 30]


def test_for_each_par_outside_runtime_falls_back_to_seq():
    out = []
    for_each(par, range(5), out.append)
    assert out == [0, 1, 2, 3, 4]


def test_for_each_par_in_runtime(rt):
    out = []

    def main():
        for_each(par, range(100), out.append)

    rt.run(main)
    assert sorted(out) == list(range(100))


def test_for_each_empty(rt):
    rt.run(lambda: for_each(par, [], lambda x: 1 / 0))


def test_chunked_for_each_respects_chunk_size(rt):
    """With chunk_size=10 over 100 items, exactly 10 tasks are spawned."""
    pool = rt.localities[0].pool
    before = pool.tasks_executed

    def main():
        for_each(par.with_chunk_size(10), range(100), lambda i: None)

    rt.run(main)
    # main + 10 chunk tasks (when_all adds no tasks of its own).
    assert pool.tasks_executed - before == 11


# seq/par chunking identity (regression) ----------------------------------------
#
# The sequential fall-back in _submit_chunks used to collapse the whole
# index space into a single chunk while the parallel path partitioned it,
# so chunk-sensitive bodies (per-chunk setup cost, chunk-order
# reductions, fused block updates) saw different chunk shapes under seq
# and par.  Both paths now share one chunking rule.

def _record_chunks(rt, policy, n=103):
    from repro.runtime.algorithms import for_each_block

    chunks = []
    rt.run(lambda: for_each_block(policy, 0, n, chunks.append))
    return sorted(chunks, key=lambda rng: rng.start)


def test_seq_and_par_chunking_is_identical(rt):
    seq_chunks = _record_chunks(rt, seq)
    par_chunks = _record_chunks(rt, par)
    assert seq_chunks == par_chunks
    # The shared rule really partitions (the old bug made seq one chunk).
    assert len(seq_chunks) > 1
    covered = [i for rng in seq_chunks for i in rng]
    assert covered == list(range(103))


def test_seq_and_par_chunking_identical_with_explicit_chunk_size(rt):
    seq_chunks = _record_chunks(rt, seq.with_chunk_size(7))
    par_chunks = _record_chunks(rt, par.with_chunk_size(7))
    assert seq_chunks == par_chunks
    assert all(len(rng) <= 7 for rng in seq_chunks)


def test_seq_outside_runtime_chunks_for_one_worker():
    from repro.runtime.algorithms import for_each_block

    chunks = []
    for_each_block(seq, 0, 40, chunks.append)
    expected = partition(0, 40, auto_chunk_size(40, 1))
    assert chunks == expected


# Fused block algorithms ---------------------------------------------------------

def test_for_each_block_matches_for_each(rt):
    from repro.runtime.algorithms import for_each_block

    out_block = [0] * 60
    out_elem = [0] * 60

    def block_body(rng):
        for i in rng:
            out_block[i] = i * i

    def main():
        for_each_block(par, 0, 60, block_body)
        for_each(par, range(60), lambda i: out_elem.__setitem__(i, i * i))

    rt.run(main)
    assert out_block == out_elem == [i * i for i in range(60)]


def test_block_algorithms_validate_index_space():
    from repro.runtime.algorithms import for_each_block

    with pytest.raises(RuntimeStateError):
        for_each_block(seq, 10, 5, lambda rng: None)
