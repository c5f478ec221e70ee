"""Shuffle phase: partition, sort, and group map output.

This is the part of the MR contract the paper's strategies lean on
hardest — composite keys are *partitioned* on one component, *sorted*
on the whole key and *grouped* on another projection, which is what
lets a reduce task receive several blocks (or pair ranges) in a
well-defined order.

A reduce task's input moves through one representation: stably sorted
``(sort key, record)`` entries.  :func:`sort_entries` builds them from
an in-memory bucket; the spill path
(:class:`~repro.mapreduce.external_shuffle.ExternalShuffle`) yields them
from its merged run files.  :func:`group_entries` then forms the reduce
groups in one walk.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Sequence

from .job import MapReduceJob
from .types import KeyValue, ReduceGroup


def partition_map_output(
    job: MapReduceJob,
    map_outputs: Sequence[Sequence[KeyValue]],
    num_reduce_tasks: int,
) -> list[list[KeyValue]]:
    """Route every map-output record to its reduce task.

    ``map_outputs`` is one record list per map task.  Records are
    appended in map-task order, matching the merge order a real shuffle
    would produce before sorting.
    """
    buckets: list[list[KeyValue]] = [[] for _ in range(num_reduce_tasks)]
    for task_output in map_outputs:
        for record in task_output:
            index = job.validate_partition(record.key, num_reduce_tasks)
            buckets[index].append(record)
    return buckets


def sort_entries(
    job: MapReduceJob, bucket: Sequence[KeyValue]
) -> list[tuple[Any, KeyValue]]:
    """Stably sort one reduce task's input by the job's sort projection.

    Returns ``(sort key, record)`` entries — the representation
    :meth:`~repro.mapreduce.external_shuffle.ExternalShuffle.
    bucket_entries` yields for spilled buckets — so the group walk of
    :func:`group_entries` reuses each record's sort key.  Each key is
    projected once, and only the sort keys are compared (never the
    records).

    Stability matters: records with equal sort keys keep their map-task
    arrival order, which the BlockSplit reduce function exploits when it
    buffers the first sub-block of a cross-product match task.
    """
    sort_key = job.sort_key
    entries = [(sort_key(record.key), record) for record in bucket]
    entries.sort(key=itemgetter(0))
    return entries


def group_entries(
    job: MapReduceJob, entries: Sequence[tuple[Any, KeyValue]]
) -> list[ReduceGroup]:
    """Fold sorted ``(sort key, record)`` entries into reduce groups.

    Consecutive entries with equal group keys form one group; the
    representative key of a group is the full key of its first record
    (Hadoop semantics).  For a job with a
    :class:`~repro.mapreduce.types.PackedProjection` the group key is a
    shift/mask of the packed sort key the entry already carries; other
    jobs project each record's key through ``job.group_key``.
    """
    projection = job.packed_projection
    if projection is None:
        group_key = job.group_key
        group_keys = [group_key(record.key) for _sort_key, record in entries]
    else:
        shift = projection.group_shift
        mask = projection.group_mask
        group_keys = [(packed >> shift) & mask for packed, _record in entries]

    groups: list[ReduceGroup] = []
    current_key: Any = None
    current_group: Any = None
    current_values: list[Any] = []
    for gk, (_sort_key, record) in zip(group_keys, entries):
        if current_values and gk == current_group:
            current_values.append(record.value)
        else:
            if current_values:
                groups.append(ReduceGroup(current_key, tuple(current_values)))
            current_key = record.key
            current_group = gk
            current_values = [record.value]
    if current_values:
        groups.append(ReduceGroup(current_key, tuple(current_values)))
    return groups


def shuffle(
    job: MapReduceJob,
    map_outputs: Sequence[Sequence[KeyValue]],
    num_reduce_tasks: int,
) -> list[list[ReduceGroup]]:
    """Full shuffle: returns, per reduce task, its ordered reduce groups."""
    buckets = partition_map_output(job, map_outputs, num_reduce_tasks)
    return [group_entries(job, sort_entries(job, bucket)) for bucket in buckets]
