"""Shuffle semantics: partition / sort / group over composite keys."""

from __future__ import annotations

from typing import NamedTuple

from repro.mapreduce.job import LambdaJob
from repro.mapreduce.shuffle import (
    group_entries,
    partition_map_output,
    shuffle,
    sort_entries,
)
from repro.mapreduce.types import KeyValue


class ColorShape(NamedTuple):
    """The composite key of the paper's Figure 1: shape + color."""

    color: str
    shape: str


def figure1_job() -> LambdaJob:
    """Partition on color only, sort and group on the entire key."""
    return LambdaJob(
        map_fn=lambda k, v, emit, ctx: None,
        reduce_fn=lambda k, vs, emit, ctx: None,
        partition_fn=lambda key, r: {"light": 0, "dark": 1, "black": 2}[key.color],
    )


def records(*keys):
    return [KeyValue(k, i) for i, k in enumerate(keys)]


class TestPartition:
    def test_partition_on_key_projection(self):
        job = figure1_job()
        outputs = [
            records(
                ColorShape("light", "circle"),
                ColorShape("dark", "circle"),
                ColorShape("black", "triangle"),
                ColorShape("light", "triangle"),
            )
        ]
        buckets = partition_map_output(job, outputs, 3)
        assert [len(b) for b in buckets] == [2, 1, 1]
        assert all(kv.key.color == "light" for kv in buckets[0])

    def test_merge_preserves_map_task_order(self):
        job = LambdaJob(
            map_fn=lambda *a: None,
            reduce_fn=lambda *a: None,
            partition_fn=lambda key, r: 0,
        )
        outputs = [records("a"), records("b")]
        buckets = partition_map_output(job, outputs, 1)
        assert [kv.key for kv in buckets[0]] == ["a", "b"]

    def test_bad_partition_index_rejected(self):
        import pytest

        job = LambdaJob(
            map_fn=lambda *a: None,
            reduce_fn=lambda *a: None,
            partition_fn=lambda key, r: r,  # out of range
        )
        with pytest.raises(ValueError, match="outside"):
            partition_map_output(job, [records("a")], 2)


class TestSortAndGroup:
    def test_sort_is_stable(self):
        job = LambdaJob(
            map_fn=lambda *a: None,
            reduce_fn=lambda *a: None,
            sort_key_fn=lambda key: key[0],
        )
        bucket = [KeyValue(("a", 2), "x"), KeyValue(("a", 1), "y")]
        entries = sort_entries(job, bucket)
        # Equal sort keys keep arrival order; each record carries its
        # sort key.
        assert entries == [("a", bucket[0]), ("a", bucket[1])]

    def test_group_on_projection(self):
        # Figure 1: 5 distinct keys -> 5 reduce calls when grouping on
        # the whole key, fewer when grouping on color only.
        keys = [
            ColorShape("light", "circle"),
            ColorShape("light", "circle"),
            ColorShape("light", "triangle"),
            ColorShape("dark", "circle"),
        ]
        whole_key_job = LambdaJob(
            map_fn=lambda *a: None, reduce_fn=lambda *a: None
        )
        entries = sort_entries(whole_key_job, [KeyValue(k, 1) for k in keys])
        groups = group_entries(whole_key_job, entries)
        assert len(groups) == 3

        color_job = LambdaJob(
            map_fn=lambda *a: None,
            reduce_fn=lambda *a: None,
            group_key_fn=lambda key: key.color,
        )
        groups = group_entries(
            color_job, sort_entries(color_job, [KeyValue(k, 1) for k in keys])
        )
        assert len(groups) == 2

    def test_group_key_is_first_records_full_key(self):
        job = LambdaJob(
            map_fn=lambda *a: None,
            reduce_fn=lambda *a: None,
            group_key_fn=lambda key: key[0],
        )
        bucket = [KeyValue(("g", 1), "a"), KeyValue(("g", 2), "b")]
        groups = group_entries(job, sort_entries(job, bucket))
        assert len(groups) == 1
        assert groups[0].key == ("g", 1)
        assert groups[0].values == ("a", "b")

    def test_empty_bucket(self):
        job = LambdaJob(map_fn=lambda *a: None, reduce_fn=lambda *a: None)
        assert group_entries(job, sort_entries(job, [])) == []


class TestFullShuffle:
    def test_end_to_end(self):
        job = figure1_job()
        outputs = [
            records(
                ColorShape("light", "circle"),
                ColorShape("dark", "circle"),
            ),
            records(
                ColorShape("light", "circle"),
                ColorShape("black", "circle"),
            ),
        ]
        grouped = shuffle(job, outputs, 3)
        assert len(grouped) == 3
        # Reduce task 0 gets both light circles in one group.
        assert len(grouped[0]) == 1
        assert len(grouped[0][0]) == 2
