"""The async backend: task units on a thread executor, for asyncio
callers.

The same schedulable task units and the same merge window
(:meth:`~repro.mapreduce.runtime.LocalRuntime._run_windowed`) as the
parallel runtime, on a thread executor of ``max_concurrency`` threads:
matches, outputs and counters are byte-identical to the serial
reference.

Threads share the GIL — the point of this backend is not multi-core
speedup but *cooperative integration*: an asyncio application can
``await pipeline.submit_async(...)``, stream matches with ``async
for``, overlap I/O-bound matchers, and cancel the run without blocking
its event loop.  Those entry points live on the pipeline and the
execution handle; the runtime itself runs on the execution's driver
thread and never touches the host application's loop.
"""

from __future__ import annotations

from ..mapreduce.dfs import DistributedFileSystem
from .backend import register_backend
from .executing import ExecutingBackendBase
from .parallel import ParallelRuntime


class AsyncRuntime(ParallelRuntime):
    """Job executor that runs task units on ``max_concurrency`` threads.

    Parameters
    ----------
    max_concurrency:
        Task units in flight at once; defaults to ``os.cpu_count()``.
    """

    def __init__(
        self,
        dfs: DistributedFileSystem | None = None,
        *,
        max_concurrency: int | None = None,
    ):
        if max_concurrency is not None and max_concurrency <= 0:
            raise ValueError(
                f"max_concurrency must be positive, got {max_concurrency}"
            )
        super().__init__(dfs, max_workers=max_concurrency, executor="thread")
        self.max_concurrency = self.max_workers


@register_backend
class AsyncBackend(ExecutingBackendBase):
    """Executes the workflow with :class:`AsyncRuntime` threads."""

    name = "async"

    def __init__(
        self,
        dfs: DistributedFileSystem | None = None,
        *,
        max_concurrency: int | None = None,
    ):
        self._dfs = dfs
        self.max_concurrency = max_concurrency

    def make_runtime(self) -> AsyncRuntime:
        return AsyncRuntime(self._dfs, max_concurrency=self.max_concurrency)

    def __repr__(self) -> str:
        return f"AsyncBackend(max_concurrency={self.max_concurrency})"
