"""Spill-to-disk shuffle: sorted run files for over-budget map output.

The in-memory shuffle (:mod:`repro.mapreduce.shuffle`) holds every map
output record until all reduce buckets are built — fine for the paper's
experiments, a wall for anything larger.  :class:`ExternalShuffle`
bounds that working set: records are routed to their reduce bucket as
they arrive, and whenever more than ``memory_budget`` records are
buffered, each bucket's buffer is sorted by the job's sort projection
and spilled to a run file on disk.  Draining a bucket merges its run
files with the in-memory tail.

The result is **byte-identical** to the in-memory path.  Every record
carries a global arrival sequence number, runs are sorted by
``(sort key, sequence)``, and the k-way merge compares the same pair —
so a drained bucket is exactly the stable sort (by the job's sort
projection) of that bucket's arrival order.  Buckets drain as
``(sort key, record)`` entries, the list
:func:`~repro.mapreduce.shuffle.sort_entries` builds for an in-memory
bucket, so the reduce task groups them directly and grouping,
matching, and counters come out the same.
"""

from __future__ import annotations

import heapq
import pickle
import shutil
import tempfile
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .job import MapReduceJob
from .types import KeyValue

#: One buffered/spilled record: (sort key, arrival sequence, record).
_Entry = tuple[Any, int, KeyValue]


class ExternalShuffle:
    """Partition/sort/spill map output under a record memory budget.

    Parameters
    ----------
    job:
        Supplies ``partition`` and ``sort_key`` — the same routing
        functions the in-memory shuffle uses.
    num_reduce_tasks:
        Number of reduce buckets.
    memory_budget:
        Maximum records buffered (across all buckets) before a spill.
    spill_dir:
        Directory for run files; a private temporary directory (removed
        on :meth:`close`) is created when omitted.
    """

    def __init__(
        self,
        job: MapReduceJob,
        num_reduce_tasks: int,
        memory_budget: int,
        *,
        spill_dir: str | Path | None = None,
    ):
        if num_reduce_tasks <= 0:
            raise ValueError(
                f"num_reduce_tasks must be positive, got {num_reduce_tasks}"
            )
        if memory_budget <= 0:
            raise ValueError(
                f"memory_budget must be positive, got {memory_budget}"
            )
        self.job = job
        self.num_reduce_tasks = num_reduce_tasks
        self.memory_budget = memory_budget
        if spill_dir is None:
            self._dir = Path(tempfile.mkdtemp(prefix="repro-shuffle-"))
            self._owns_dir = True
        else:
            self._dir = Path(spill_dir)
            self._dir.mkdir(parents=True, exist_ok=True)
            self._owns_dir = False
        self._buffers: list[list[_Entry]] = [[] for _ in range(num_reduce_tasks)]
        self._runs: list[list[Path]] = [[] for _ in range(num_reduce_tasks)]
        self._buffered = 0
        self._next_sequence = 0
        self._spill_count = 0
        self._spilled_records = 0
        self._closed = False

    # -- feeding ------------------------------------------------------------

    def add(self, record: KeyValue) -> None:
        """Route one map output record; spill when the budget fills up.

        The sort projection is computed once here and travels with the
        record through buffers, run files and the merge — for the
        strategy jobs that projection is a packed int
        (:class:`~repro.mapreduce.types.KeyCodec`), which both compares
        and pickles far cheaper than a composite-key tuple.
        """
        if self._closed:
            raise RuntimeError("cannot add records to a closed shuffle")
        job = self.job
        index = job.validate_partition(record.key, self.num_reduce_tasks)
        entry = (job.sort_key(record.key), self._next_sequence, record)
        self._next_sequence += 1
        self._buffers[index].append(entry)
        self._buffered += 1
        if self._buffered >= self.memory_budget:
            self.spill()

    def add_records(self, records: Iterable[KeyValue]) -> None:
        add = self.add
        for record in records:
            add(record)

    def spill(self) -> None:
        """Flush every non-empty buffer to a sorted run file."""
        if self._buffered == 0:
            return
        for index, buffer in enumerate(self._buffers):
            if not buffer:
                continue
            buffer.sort(key=_entry_order)
            path = (
                self._dir
                / f"spill-{self._spill_count:05d}-bucket-{index:05d}.run"
            )
            with path.open("wb") as handle:
                for entry in buffer:
                    pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
            self._runs[index].append(path)
            self._spilled_records += len(buffer)
            self._buffers[index] = []
        self._spill_count += 1
        self._buffered = 0

    # -- introspection ------------------------------------------------------

    @property
    def spill_count(self) -> int:
        """Number of spill rounds performed so far."""
        return self._spill_count

    @property
    def spilled_records(self) -> int:
        """Total records written to run files so far."""
        return self._spilled_records

    @property
    def buffered_records(self) -> int:
        """Records currently held in memory."""
        return self._buffered

    # -- draining -----------------------------------------------------------

    def bucket_entries(self, index: int) -> list[tuple[Any, KeyValue]]:
        """One reduce task's ``(sort key, record)`` entries, merged from
        run files + buffer.

        The returned list is sorted by ``(sort key, arrival sequence)``
        — i.e. the stable sort of the bucket's arrival order, identical
        to what :func:`~repro.mapreduce.shuffle.sort_entries` returns for
        the same bucket held in memory.  The sort key computed once in
        :meth:`add` rides along so the reduce task's group walk
        (:func:`~repro.mapreduce.shuffle.group_entries`) never
        re-projects a record.
        """
        if self._closed:
            raise RuntimeError("cannot drain a closed shuffle")
        if not 0 <= index < self.num_reduce_tasks:
            raise IndexError(
                f"bucket index {index} outside [0, {self.num_reduce_tasks})"
            )
        tail = sorted(self._buffers[index], key=_entry_order)
        streams: list[Iterator[_Entry] | list[_Entry]] = [
            _iter_run(path) for path in self._runs[index]
        ]
        streams.append(tail)
        merged = heapq.merge(*streams, key=_entry_order)
        return [(key, record) for key, _seq, record in merged]

    def buckets(self) -> Sequence[list[tuple[Any, KeyValue]]]:
        """A lazy sequence of all reduce buckets, as entry lists.

        ``buckets()[i]`` drains bucket ``i`` (via :meth:`bucket_entries`)
        on access and retains nothing, so a serial reducer pass holds
        one bucket at a time.
        """
        return _LazyBuckets(self)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drop buffers and delete owned spill files."""
        if self._closed:
            return
        self._closed = True
        self._buffers = [[] for _ in range(self.num_reduce_tasks)]
        if self._owns_dir:
            shutil.rmtree(self._dir, ignore_errors=True)

    def __enter__(self) -> "ExternalShuffle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ExternalShuffle(r={self.num_reduce_tasks}, "
            f"budget={self.memory_budget}, spills={self._spill_count})"
        )


def _entry_order(entry: _Entry) -> tuple[Any, int]:
    """Sort/merge order: sort projection first, arrival sequence second.

    The sequence is globally unique, so records themselves are never
    compared (they need not be orderable).
    """
    return (entry[0], entry[1])


def _iter_run(path: Path) -> Iterator[_Entry]:
    """Stream one run file, record at a time."""
    with path.open("rb") as handle:
        while True:
            try:
                yield pickle.load(handle)
            except EOFError:
                return


class _LazyBuckets(Sequence[list]):
    """Sequence view that drains one bucket per access."""

    def __init__(self, shuffle: ExternalShuffle):
        self._shuffle = shuffle

    def __len__(self) -> int:
        return self._shuffle.num_reduce_tasks

    def __getitem__(self, index: int) -> list[tuple[Any, KeyValue]]:  # type: ignore[override]
        return self._shuffle.bucket_entries(index)
