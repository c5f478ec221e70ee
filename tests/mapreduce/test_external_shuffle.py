"""Spill-to-disk shuffle: forced spilling must not change anything."""

from __future__ import annotations

import random

import pytest

from repro.mapreduce.external_shuffle import ExternalShuffle
from repro.mapreduce.job import LambdaJob
from repro.mapreduce.runtime import LocalRuntime
from repro.mapreduce.shuffle import partition_map_output, sort_entries
from repro.mapreduce.types import KeyValue, make_partitions

NUM_REDUCE_TASKS = 3


def _job() -> LambdaJob:
    """A composite-key job: partition on key[0], sort on the whole key.

    Duplicated sort keys exercise the stability guarantee — equal keys
    must keep their arrival order through spills and merges.
    """
    return LambdaJob(
        map_fn=lambda k, v, emit, ctx: emit((v % NUM_REDUCE_TASKS, v % 5), v),
        reduce_fn=lambda k, vs, emit, ctx: emit(k, sum(vs)),
        partition_fn=lambda key, r: key[0] % r,
        name="spill-probe",
    )


def _records(n: int = 200, seed: int = 13) -> list[KeyValue]:
    rng = random.Random(seed)
    return [
        KeyValue((rng.randrange(NUM_REDUCE_TASKS), rng.randrange(5), i), i)
        for i in range(n)
    ]


def _probe_job() -> LambdaJob:
    return LambdaJob(
        map_fn=lambda k, v, emit, ctx: emit(k, v),
        reduce_fn=lambda k, vs, emit, ctx: emit(k, list(vs)),
        partition_fn=lambda key, r: key[0] % r,
        sort_key_fn=lambda key: (key[0], key[1]),  # drop key[2]: duplicates
        name="merge-probe",
    )


class TestSpilling:
    def test_tiny_budget_forces_spills(self):
        job = _probe_job()
        records = _records()
        with ExternalShuffle(job, NUM_REDUCE_TASKS, memory_budget=10) as shuffle:
            shuffle.add_records(records)
            assert shuffle.spill_count >= len(records) // 10
            assert shuffle.spilled_records >= len(records) - 10
            assert shuffle.buffered_records < 10

    def test_buckets_equal_in_memory_shuffle(self):
        job = _probe_job()
        records = _records()
        expected = [
            sort_entries(job, bucket)
            for bucket in partition_map_output(job, [records], NUM_REDUCE_TASKS)
        ]
        with ExternalShuffle(job, NUM_REDUCE_TASKS, memory_budget=7) as shuffle:
            shuffle.add_records(records)
            drained = [
                shuffle.bucket_entries(i) for i in range(NUM_REDUCE_TASKS)
            ]
        assert drained == expected

    def test_no_spill_under_budget(self):
        job = _probe_job()
        records = _records(n=20)
        with ExternalShuffle(job, NUM_REDUCE_TASKS, memory_budget=1000) as shuffle:
            shuffle.add_records(records)
            assert shuffle.spill_count == 0
            expected = [
                sort_entries(job, bucket)
                for bucket in partition_map_output(job, [records], NUM_REDUCE_TASKS)
            ]
            assert list(shuffle.buckets()) == expected

    def test_entries_carry_the_sort_key_encoded_at_add_time(self):
        # The (sort key, record) pairs buckets() yields must pair every
        # record with exactly the job's sort projection of its key — the
        # reduce group walk reuses it instead of re-encoding.
        job = _probe_job()
        with ExternalShuffle(job, NUM_REDUCE_TASKS, memory_budget=7) as shuffle:
            shuffle.add_records(_records(n=40))
            for index in range(NUM_REDUCE_TASKS):
                for sort_key, record in shuffle.bucket_entries(index):
                    assert sort_key == job.sort_key(record.key)

    def test_lazy_bucket_sequence(self):
        job = _probe_job()
        with ExternalShuffle(job, NUM_REDUCE_TASKS, memory_budget=5) as shuffle:
            shuffle.add_records(_records(n=30))
            buckets = shuffle.buckets()
            assert len(buckets) == NUM_REDUCE_TASKS
            assert buckets[1] == shuffle.bucket_entries(1)


class TestValidation:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError, match="memory_budget"):
            ExternalShuffle(_probe_job(), NUM_REDUCE_TASKS, memory_budget=0)

    def test_rejects_nonpositive_reduce_tasks(self):
        with pytest.raises(ValueError, match="num_reduce_tasks"):
            ExternalShuffle(_probe_job(), 0, memory_budget=10)

    def test_closed_shuffle_refuses_work(self):
        shuffle = ExternalShuffle(_probe_job(), NUM_REDUCE_TASKS, memory_budget=10)
        shuffle.close()
        with pytest.raises(RuntimeError, match="closed"):
            shuffle.add(KeyValue((0, 0, 0), 0))
        with pytest.raises(RuntimeError, match="closed"):
            shuffle.bucket_entries(0)

    def test_bucket_index_bounds(self):
        with ExternalShuffle(_probe_job(), NUM_REDUCE_TASKS, 10) as shuffle:
            with pytest.raises(IndexError):
                shuffle.bucket_entries(NUM_REDUCE_TASKS)

    def test_spill_files_removed_on_close(self, tmp_path):
        shuffle = ExternalShuffle(
            _probe_job(), NUM_REDUCE_TASKS, memory_budget=5
        )
        shuffle.add_records(_records(n=30))
        spill_dir = shuffle._dir
        assert any(spill_dir.iterdir())
        shuffle.close()
        assert not spill_dir.exists()


class TestRuntimeIntegration:
    def test_job_results_identical_with_and_without_budget(self):
        job = _job()
        partitions = make_partitions(list(range(120)), 4)
        plain = LocalRuntime().run(job, partitions, NUM_REDUCE_TASKS)
        spilled = LocalRuntime().run(
            job, partitions, NUM_REDUCE_TASKS, memory_budget=6
        )
        assert spilled.output == plain.output
        assert spilled.counters == plain.counters
        assert spilled.reduce_input_records() == plain.reduce_input_records()
        # Raw map outputs are dropped under a budget; their stats stay.
        assert all(task.output == () for task in spilled.map_tasks)
        assert [t.output_records for t in spilled.map_tasks] == [
            t.output_records for t in plain.map_tasks
        ]

    def test_runtime_rejects_nonpositive_budget(self):
        job = _job()
        partitions = make_partitions(list(range(10)), 2)
        with pytest.raises(ValueError, match="memory_budget"):
            LocalRuntime().run(job, partitions, 2, memory_budget=0)
