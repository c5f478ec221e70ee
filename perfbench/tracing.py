"""Spans recorded from outside the program, and the per-layer metrics
derived from them.

A :class:`Recorder` collects spans from two sources:

* the pipeline's own lifecycle events (``on_event``): every job, phase
  and task boundary is stamped with ``time.perf_counter()`` on arrival;
* thin wrappers that :func:`instrument` installs, for the duration of a
  traced operation, at the module bindings the program calls through:
  ``repro.er.matching.score_pair_batch``,
  ``repro.er.batch_kernel.myers_distance_batch``, the state and result
  functions of ``repro.engine.persistence`` and
  ``ColumnarShardSource.iter_shard``.

Spans stay in memory; :meth:`Recorder.write_jsonl` writes them out once
the run is over.  Each span names the span that caused it (``parent``)
and the submission it belongs to (``submission``), so the spans of one
job or one ingest share an identifier.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from probes import skew


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    submission: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store fed by events and wrappers (one driver at a time)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._open: dict[Any, Span] = {}
        self._submission: Span | None = None

    # -- span bookkeeping ------------------------------------------------

    def _begin(self, key: Any, name: str, parent: Span | None, **attrs) -> Span:
        span = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            parent=parent.id if parent is not None else None,
            submission=self._submission.id if self._submission else None,
            attrs=attrs,
        )
        self._open[key] = span
        self.spans.append(span)
        return span

    def _end(self, key: Any, **attrs) -> Span | None:
        span = self._open.pop(key, None)
        if span is not None:
            span.end = time.perf_counter()
            span.attrs.update(attrs)
        return span

    def _innermost(self) -> Span | None:
        return next(reversed(self._open.values()), None)

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """A span around a block of benchmark code or a wrapped call."""
        key = object()
        span = self._begin(key, name, self._innermost(), **attrs)
        try:
            yield span
        finally:
            self._end(key)

    @contextmanager
    def submission(self, **attrs) -> Iterator[Span]:
        """One submitted job or ingest: the unit layer spans add up to."""
        key = object()
        span = self._begin(key, "submit", self._innermost(), **attrs)
        span.submission = span.id
        self._submission = span
        try:
            yield span
        finally:
            self._end(key)
            self._submission = None

    # -- the on_event listener -------------------------------------------

    def listener(self, event) -> None:
        kind = event.kind
        if kind == "job-started":
            self._begin(("job", event.stage), "job", self._submission,
                        stage=event.stage, job=event.job)
        elif kind == "job-finished":
            self._end(("job", event.stage))
        elif kind == "phase-started":
            parent = self._open.get(("job", event.stage))
            self._begin(("phase", event.stage, event.phase), "phase", parent,
                        stage=event.stage, phase=event.phase)
        elif kind == "phase-finished":
            self._end(("phase", event.stage, event.phase))
        elif kind == "task-started":
            parent = self._open.get(("phase", event.stage, event.phase))
            self._begin(
                ("task", event.stage, event.phase, event.task_index), "task",
                parent, stage=event.stage, phase=event.phase,
                task=event.task_index,
            )
        elif kind == "task-finished":
            data = {k: v for k, v in event.data.items() if k != "output"}
            self._end(("task", event.stage, event.phase, event.task_index), **data)

    # -- output ----------------------------------------------------------

    def write_jsonl(self, path: Path, **context) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {
                    "id": span.id, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "submission": span.submission, **span.attrs, **context,
                }
                handle.write(json.dumps(record, default=str) + "\n")


# -- wrappers --------------------------------------------------------------


def _timed(recorder: Recorder, name: str, fn: Callable,
           attrs: Callable[..., dict] | None = None) -> Callable:
    def wrapper(*args, **kwargs):
        with recorder.span(name, **(attrs(*args, **kwargs) if attrs else {})):
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def instrument(recorder: Recorder) -> Iterator[Recorder]:
    """Install the timing wrappers for the duration of one traced run."""
    from repro.engine import persistence
    from repro.er import batch_kernel, matching
    from repro.io.columnar import ColumnarShardSource

    read_shard = ColumnarShardSource.iter_shard

    def timed_read(source, index):
        # Materialize inside the span so it times the read alone, not
        # the consumer of the records.
        with recorder.span("io.read", shard=index):
            records = list(read_shard(source, index))
        return iter(records)

    patches = [
        (matching, "score_pair_batch", _timed(
            recorder, "kernel", matching.score_pair_batch,
            lambda texts, pairs, *a, **k: {"pairs": pairs.count})),
        (batch_kernel, "myers_distance_batch", _timed(
            recorder, "kernel.myers", batch_kernel.myers_distance_batch,
            lambda np, patterns, *a, **k: {"lanes": len(patterns)})),
        (persistence, "load_state", _timed(
            recorder, "state.load", persistence.load_state)),
        (persistence, "save_state", _timed(
            recorder, "state.save", persistence.save_state)),
        (persistence, "load_result", _timed(
            recorder, "state.load", persistence.load_result)),
        (persistence, "save_result", _timed(
            recorder, "state.save", persistence.save_result)),
        (ColumnarShardSource, "iter_shard", timed_read),
    ]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield recorder
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


# -- per-layer metrics -----------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced operation (see README.md).

    Times of the workflow layers are summed over the operation's
    submissions; latencies, skews and persistence times are per-
    submission medians.
    """
    by_parent: dict[int | None, list[Span]] = {}
    for span in spans:
        by_parent.setdefault(span.parent, []).append(span)
    submissions = [s for s in spans if s.name == "submit"]

    sums = dict.fromkeys(
        ("io.read_s", "bdm.job_s", "plan.s", "map.s", "shuffle.s",
         "reduce.s"), 0.0)
    counts = dict.fromkeys(
        ("map.output_records", "reduce.groups", "delta.comparisons"), 0)
    time_skews, cmp_skews, first_results, tails, runs = [], [], [], [], []
    for sub in submissions:
        jobs = {s.attrs["stage"]: s for s in by_parent.get(sub.id, ())
                if s.name == "job"}
        match = jobs.get("matching")
        if match is None:
            continue
        bdm = jobs.get("bdm")
        if bdm is not None:
            sums["bdm.job_s"] += bdm.duration
            sums["plan.s"] += match.start - bdm.end
        first_job = bdm if bdm is not None else match
        runs.append(match.end - first_job.start)
        phases = {s.attrs["phase"]: s for s in by_parent.get(match.id, ())}
        for phase in ("map", "shuffle", "reduce"):
            sums[f"{phase}.s"] += phases[phase].duration
        counts["map.output_records"] += sum(
            t.attrs.get("output_records", 0)
            for t in by_parent.get(phases["map"].id, ()))
        reduces = by_parent.get(phases["reduce"].id, [])
        counts["reduce.groups"] += sum(t.attrs.get("input_groups", 0) for t in reduces)
        comparisons = [t.attrs.get("comparisons", 0) for t in reduces]
        counts["delta.comparisons"] += sum(comparisons)
        time_skews.append(skew([t.duration for t in reduces]))
        cmp_skews.append(skew([float(c) for c in comparisons]))
        tasks = [t for job in jobs.values() for phase in by_parent.get(job.id, ())
                 for t in by_parent.get(phase.id, ())]
        first_results.append(min(t.end for t in tasks) - sub.start)
        ends = sorted(t.end for t in reduces)
        tails.append(phases["reduce"].end - ends[-2] if len(ends) > 1 else 0.0)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    sums["io.read_s"] = sum(s.duration for s in named("io.read"))
    kernel = named("kernel")
    myers = named("kernel.myers")
    kernel_s = sum(s.duration for s in kernel)
    elapsed = sum(s.duration for s in submissions)
    # Persistence inside a submission (an ingest) is part of its elapsed
    # time; the batch workloads persist their result afterwards.
    persisted = sum(
        s.duration for s in spans
        if s.name in ("state.load", "state.save") and s.submission is not None
    )
    covered = sum(sums.values()) + persisted
    return {
        **sums,
        "map.output_records": counts["map.output_records"],
        "reduce.groups": counts["reduce.groups"],
        "reduce.self_s": sums["reduce.s"] - kernel_s,
        "reduce.time_skew": _median(time_skews),
        "reduce.cmp_skew": _median(cmp_skews),
        "kernel.calls": len(kernel),
        "kernel.pairs": sum(s.attrs["pairs"] for s in kernel),
        "kernel.s": kernel_s,
        "kernel.myers_s": sum(s.duration for s in myers),
        "kernel.myers_lanes": sum(s.attrs["lanes"] for s in myers),
        "dist.first_result_s": _median(first_results),
        "dist.reduce_tail_s": _median(tails),
        "state.load_s": _median([s.duration for s in named("state.load")]),
        "state.save_s": _median([s.duration for s in named("state.save")]),
        "delta.run_s": _median(runs),
        "delta.comparisons": counts["delta.comparisons"],
        "trace.elapsed_s": elapsed,
        "trace.coverage": covered / elapsed if elapsed > 0 else 0.0,
    }
