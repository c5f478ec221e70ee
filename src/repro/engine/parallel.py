"""The parallel backend: map/reduce task units on a worker pool.

The shuffle stays in the driver (it is cheap and must see all map
output), but the task units — :func:`~repro.mapreduce.runtime.
execute_map_task` and :func:`~repro.mapreduce.runtime.
execute_reduce_task` — fan out over a ``concurrent.futures`` pool
through :meth:`~repro.mapreduce.runtime.LocalRuntime._run_windowed`:
at most ``max_workers`` units in flight, the next one pulled as soon
as any finishes, results merged in task-index order.  The merged
:class:`~repro.mapreduce.runtime.JobResult` (outputs, counters, side
files) is therefore identical to the serial runtime's, just faster:
pair comparison dominates the runtime and parallelises across reduce
tasks, which is precisely the premise of the paper.  Finished results
wait in the driver until every lower-indexed task has finished too,
so one slow task can hold back the drain of the results behind it.

Executor choice:

``"process"``
    True multi-core speedup.  Requires the job (matcher, blocking
    function, BDM) to be picklable; matcher *instance* state mutated in
    workers stays in the workers — read comparison statistics from the
    job counters, which are always shipped back.
``"thread"``
    No pickling requirements and shared matcher state, but subject to
    the GIL — useful for tests and I/O-bound matchers.
``"auto"`` (default)
    ``"process"`` when the job round-trips through pickle, otherwise
    ``"thread"``.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any, Callable, Iterable

from ..mapreduce.dfs import DistributedFileSystem
from ..mapreduce.job import MapReduceJob
from ..mapreduce.runtime import LocalRuntime, TaskCall
from .backend import register_backend
from .executing import ExecutingBackendBase

_EXECUTOR_KINDS = ("auto", "process", "thread")


class ParallelRuntime(LocalRuntime):
    """Job executor that schedules task units on a worker pool.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``os.cpu_count()``.
    executor:
        ``"process"``, ``"thread"`` or ``"auto"`` (see module docs).
    """

    def __init__(
        self,
        dfs: DistributedFileSystem | None = None,
        *,
        max_workers: int | None = None,
        executor: str = "auto",
    ):
        super().__init__(dfs)
        if executor not in _EXECUTOR_KINDS:
            raise ValueError(
                f"executor must be one of {_EXECUTOR_KINDS}, got {executor!r}"
            )
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers if max_workers is not None else os.cpu_count() or 1
        self.executor = executor
        self._pools: dict[str, Executor] = {}
        # (job, resolved kind) of the last "auto" decision; the strong
        # job reference keeps the id stable while the entry is live.
        self._auto_kind: tuple[MapReduceJob, str] | None = None

    def close(self) -> None:
        """Shut down any worker pools this runtime spun up."""
        for pool in self._pools.values():
            pool.shutdown(wait=True)
        self._pools.clear()

    # -- scheduling ---------------------------------------------------------

    def _run_calls(
        self, calls: Iterable[TaskCall], sink: "Callable | None"
    ) -> list:
        if self.max_workers == 1:
            return super()._run_calls(calls, sink)
        return self._run_windowed(calls, sink, self.max_workers, self._submit)

    def _submit(self, fn: Callable[..., Any], args: tuple) -> Future:
        # Both task units take the job as their first argument; it
        # picks the pool kind ("auto" resolves per job).
        return self._pool_for(args[0]).submit(fn, *args)

    def _pool_for(self, job: MapReduceJob) -> Executor:
        """The pool matching the job's executor kind.

        Pools are created lazily and reused for the runtime's lifetime
        (all phases of all jobs), so a two-job workflow pays worker
        startup once, not once per map/reduce phase.
        """
        kind = self._executor_kind(job)
        pool = self._pools.get(kind)
        if pool is None:
            pool = (
                ProcessPoolExecutor(max_workers=self.max_workers)
                if kind == "process"
                else ThreadPoolExecutor(max_workers=self.max_workers)
            )
            self._pools[kind] = pool
        return pool

    def _executor_kind(self, job: MapReduceJob) -> str:
        """Resolve "auto" to a pool kind, probing picklability once per
        job rather than once per map/reduce phase."""
        if self.executor != "auto":
            return self.executor
        if self._auto_kind is not None and self._auto_kind[0] is job:
            return self._auto_kind[1]
        kind = "process" if _picklable(job) else "thread"
        self._auto_kind = (job, kind)
        return kind


def _picklable(job: MapReduceJob) -> bool:
    try:
        pickle.dumps(job)
    # A probe: user matchers/blocking functions can raise anything from
    # __reduce__, and every failure means the same thing — use threads.
    except Exception:  # repro-lint: disable=silent-except -- probe by design
        return False
    return True


@register_backend
class ParallelBackend(ExecutingBackendBase):
    """Executes the workflow with :class:`ParallelRuntime` workers."""

    name = "parallel"

    def __init__(
        self,
        dfs: DistributedFileSystem | None = None,
        *,
        max_workers: int | None = None,
        executor: str = "auto",
    ):
        self._dfs = dfs
        self.max_workers = max_workers
        self.executor = executor

    def make_runtime(self) -> ParallelRuntime:
        return ParallelRuntime(
            self._dfs, max_workers=self.max_workers, executor=self.executor
        )

    def __repr__(self) -> str:
        return (
            f"ParallelBackend(max_workers={self.max_workers}, "
            f"executor={self.executor!r})"
        )
