"""Backend equivalence: serial and parallel execution are indistinguishable.

The parallel runtime ships the same task units to a pool and merges in
task-index order, so for every strategy — one- and two-source — the
matches, per-task outputs, and every counter must be identical to the
serial reference, and repeated runs must be deterministic.  The shared
merge window must also keep pulling tasks past a slow one.
"""

from __future__ import annotations

import threading

import pytest

from repro.datasets.generators import generate_products
from repro.engine import ERPipeline, ParallelBackend, SerialBackend
from repro.engine.async_backend import AsyncRuntime
from repro.engine.parallel import ParallelRuntime
from repro.er.blocking import PrefixBlocking
from repro.er.matching import ThresholdMatcher
from repro.mapreduce.events import EventChannel, EventKind
from repro.mapreduce.job import LambdaJob
from repro.mapreduce.runtime import LocalRuntime
from repro.mapreduce.types import make_partitions

from ..conftest import random_keyed_entities

ALL_STRATEGIES = ["basic", "blocksplit", "pairrange"]
DUAL_STRATEGIES = ["blocksplit", "pairrange"]


def _pipeline(strategy, **kwargs):
    kwargs.setdefault("num_map_tasks", 3)
    kwargs.setdefault("num_reduce_tasks", 5)
    return ERPipeline(
        strategy,
        PrefixBlocking("title"),
        ThresholdMatcher("title", 0.8),
        **kwargs,
    )


def _job_fingerprint(job_result):
    """Everything observable about a finished job, for equality checks."""
    return (
        job_result.job_name,
        tuple(tuple(task.output) for task in job_result.map_tasks),
        tuple(tuple(task.output) for task in job_result.reduce_tasks),
        tuple(task.counters.as_dict() for task in job_result.map_tasks),
        tuple(task.counters.as_dict() for task in job_result.reduce_tasks),
        job_result.counters.as_dict(),
    )


def _fingerprint(result):
    return (
        result.strategy,
        result.matches.pair_ids,
        None if result.job1 is None else _job_fingerprint(result.job1),
        _job_fingerprint(result.job2),
    )


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_one_source_identical(self, strategy, executor):
        entities = generate_products(250, seed=41)
        serial = _pipeline(strategy).run(entities)
        parallel = (
            _pipeline(strategy)
            .with_backend("parallel", max_workers=4, executor=executor)
            .run(entities)
        )
        assert _fingerprint(serial) == _fingerprint(parallel)
        assert len(serial.matches) > 0

    @pytest.mark.parametrize("strategy", DUAL_STRATEGIES)
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_two_source_identical(self, strategy, executor):
        r_entities = generate_products(150, seed=42)
        s_entities = generate_products(150, seed=43)
        serial = _pipeline(strategy, num_map_tasks=4).run(r_entities, s_entities)
        parallel = (
            _pipeline(strategy, num_map_tasks=4)
            .with_backend("parallel", max_workers=4, executor=executor)
            .run(r_entities, s_entities)
        )
        assert _fingerprint(serial) == _fingerprint(parallel)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_parallel_deterministic_across_runs(self, strategy):
        entities = generate_products(200, seed=44)
        backend = ParallelBackend(max_workers=4)
        first = _pipeline(strategy, backend=backend).run(entities)
        second = _pipeline(strategy, backend=backend).run(entities)
        assert _fingerprint(first) == _fingerprint(second)

    def test_unpicklable_job_falls_back_to_threads(self, blocking):
        # `blocking` wraps a lambda — unpicklable, so "auto" must pick
        # the thread executor and still match the serial reference.
        entities = random_keyed_entities(60, 5, seed=45)
        serial = ERPipeline(
            "blocksplit", blocking, ThresholdMatcher("title", 0.8),
            num_map_tasks=2, num_reduce_tasks=3,
        ).run(entities)
        parallel = ERPipeline(
            "blocksplit", blocking, ThresholdMatcher("title", 0.8),
            num_map_tasks=2, num_reduce_tasks=3,
            backend=ParallelBackend(max_workers=4, executor="auto"),
        ).run(entities)
        assert _fingerprint(serial) == _fingerprint(parallel)

    def test_single_worker_degenerates_to_serial(self):
        entities = generate_products(120, seed=46)
        serial = _pipeline("pairrange").run(entities)
        one_worker = (
            _pipeline("pairrange")
            .with_backend("parallel", max_workers=1)
            .run(entities)
        )
        assert _fingerprint(serial) == _fingerprint(one_worker)


class TestBackendSelection:
    def test_with_backend_returns_configured_copy(self):
        base = _pipeline("blocksplit")
        fast = base.with_backend("parallel", max_workers=2)
        assert base.backend.name == "serial"
        assert fast.backend.name == "parallel"
        assert fast.strategy is base.strategy
        assert fast.matcher is base.matcher

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError, match="unknown backend"):
            _pipeline("blocksplit", backend="hadoop")

    def test_backend_instance_accepted(self):
        result = _pipeline("basic", backend=SerialBackend()).run(
            generate_products(80, seed=47)
        )
        assert result.backend == "serial"

    def test_invalid_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            ParallelBackend(executor="fibers").make_runtime()

    def test_result_records_backend_name(self):
        entities = generate_products(80, seed=48)
        assert _pipeline("basic").run(entities).backend == "serial"
        assert (
            _pipeline("basic")
            .with_backend("parallel", executor="thread")
            .run(entities)
            .backend
            == "parallel"
        )


def _slow_first_task_job(gate):
    """A job whose map task 0 blocks until ``gate`` is set (bounded)."""

    def map_fn(key, value, emit, ctx):
        if ctx.partition_index == 0:
            gate.wait(timeout=30)
        emit(value, 1)

    def reduce_fn(key, values, emit, ctx):
        emit(key, sum(values))

    return LambdaJob(map_fn, reduce_fn, name="slow-first")


class TestWindowPolicy:
    """The shared merge window pulls the next task as soon as *any*
    in-flight task finishes, not only when the oldest one does."""

    @pytest.mark.parametrize(
        "make_runtime",
        [
            lambda: ParallelRuntime(max_workers=2, executor="thread"),
            lambda: AsyncRuntime(max_concurrency=2),
        ],
        ids=["parallel", "async"],
    )
    def test_slow_task_does_not_block_the_window(self, make_runtime):
        gate = threading.Event()
        last_pulled = threading.Event()

        def on_event(event):
            if event.kind == EventKind.TASK_STARTED and event.phase == "map":
                if event.task_index == 3:
                    last_pulled.set()

        values = ["a", "b", "c", "a"]
        partitions = make_partitions(values, 4)
        outcome: dict = {}

        def run():
            runtime = make_runtime()
            runtime.events = EventChannel([on_event])
            try:
                outcome["result"] = runtime.run(
                    _slow_first_task_job(gate), partitions, 2
                )
            finally:
                runtime.close()

        driver = threading.Thread(target=run)
        driver.start()
        try:
            # With task 0 blocked, task 3 is pulled only if tasks 1 and
            # 2 each freed a window slot as soon as they finished.
            pulled_while_blocked = last_pulled.wait(timeout=10)
        finally:
            gate.set()
            driver.join(timeout=60)
        assert not driver.is_alive()
        assert pulled_while_blocked
        reference = LocalRuntime().run(
            _slow_first_task_job(gate), partitions, 2
        )
        assert outcome["result"].output == reference.output
