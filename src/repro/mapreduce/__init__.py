"""An in-process, deterministic MapReduce runtime.

This package is the substrate the paper's algorithms run on.  It
implements the full MR contract from Section II of the paper —
``map``/``reduce`` user functions plus the ``part``/``comp``/``group``
routing functions over composite keys — together with Hadoop-style
counters, combiners, and side outputs chained through an in-memory
distributed file system.
"""

from .counters import Counters, StandardCounter
from .dfs import DfsError, DistributedFileSystem
from .events import EventChannel, EventKind, ExecutionEvent, PipelineCancelled
from .external_shuffle import ExternalShuffle
from .job import Emitter, JobConfig, LambdaJob, MapReduceJob, TaskContext, stable_hash
from .runtime import JobResult, LocalRuntime, MapTaskResult, ReduceTaskResult
from .shuffle import group_entries, partition_map_output, shuffle, sort_entries
from .types import (
    KeyCodec,
    KeyValue,
    PackedProjection,
    Partition,
    ReduceGroup,
    make_partitions,
    shard_bounds,
)

__all__ = [
    "KeyCodec",
    "PackedProjection",
    "EventChannel",
    "EventKind",
    "ExecutionEvent",
    "PipelineCancelled",
    "Counters",
    "StandardCounter",
    "DfsError",
    "DistributedFileSystem",
    "ExternalShuffle",
    "Emitter",
    "JobConfig",
    "LambdaJob",
    "MapReduceJob",
    "TaskContext",
    "stable_hash",
    "JobResult",
    "LocalRuntime",
    "MapTaskResult",
    "ReduceTaskResult",
    "group_entries",
    "partition_map_output",
    "shuffle",
    "sort_entries",
    "KeyValue",
    "Partition",
    "ReduceGroup",
    "make_partitions",
    "shard_bounds",
]
