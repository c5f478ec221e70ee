"""MapReduce-based Sorted Neighborhood (SN) blocking.

The paper's related work (its reference [11] — the authors' own
"Multi-pass Sorted Neighborhood Blocking with MapReduce") uses a
different candidate definition: entities are *sorted* by a sorting key
and every pair within a sliding window of size ``w`` is compared
(i.e. pairs at sort distance ≤ w−1).  SN is "by design less vulnerable
to skewed data" because the work per entity is bounded by ``w``
regardless of key-value frequencies; the trade-off is that candidates
are defined by rank adjacency rather than key equality.

MR realisation (the JobSN scheme):

1. a cheap pre-pass computes the global sort order's r-quantile
   boundaries (and the partition offsets);
2. the SN job range-partitions entities by sorting key, each reduce
   task slides the window over its sorted run, and additionally emits
   its first/last ``w−1`` entities as tagged *boundary* records;
3. a tiny driver pass compares boundary records of adjacent partitions
   (pairs at global sort distance < w that straddle a partition cut).

Implemented here for completeness of the paper's design space and used
by ``benchmarks/bench_sorted_neighborhood.py`` to contrast SN's
bounded-by-construction balance with BlockSplit/PairRange.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..er.entity import Entity
from ..er.matching import Matcher, MatchResult
from ..mapreduce.counters import StandardCounter, flush_pair_counters
from ..mapreduce.job import MapReduceJob, TaskContext
from ..mapreduce.runtime import JobResult, LocalRuntime
from ..mapreduce.types import make_partitions

SortKeyFn = Callable[[Entity], Any]


@dataclass(frozen=True, slots=True)
class SnPlan:
    """Range-partitioning metadata computed by the pre-pass.

    ``boundaries[i]`` is the first sort key of reduce partition ``i+1``;
    ``offsets[i]`` is the global rank of partition ``i``'s first entity.
    """

    boundaries: tuple[tuple[Any, str], ...]
    offsets: tuple[int, ...]
    total: int

    @property
    def num_partitions(self) -> int:
        return len(self.offsets)


@dataclass(frozen=True, slots=True)
class SnResult:
    """Outcome of one SN run."""

    matches: MatchResult
    window: int
    comparisons: int
    boundary_comparisons: int
    reduce_comparisons: tuple[int, ...]
    job: JobResult


def compute_sn_plan(
    entities: Sequence[Entity], sort_key: SortKeyFn, num_reduce_tasks: int
) -> SnPlan:
    """Pre-pass: exact r-quantile cut points of the global sort order.

    A production deployment estimates these from a sample (as [17] does
    for theta-joins); in-process we can afford the exact order.
    """
    if num_reduce_tasks <= 0:
        raise ValueError(f"num_reduce_tasks must be positive, got {num_reduce_tasks}")
    ordered = sorted(
        ((sort_key(e), e.qualified_id) for e in entities)
    )
    total = len(ordered)
    base, extra = divmod(total, num_reduce_tasks)
    offsets = []
    boundaries = []
    position = 0
    for i in range(num_reduce_tasks):
        offsets.append(position)
        position += base + (1 if i < extra else 0)
        if i < num_reduce_tasks - 1 and position < total:
            boundaries.append(ordered[position])
    return SnPlan(tuple(boundaries), tuple(offsets), total)


class SortedNeighborhoodJob(MapReduceJob):
    """The SN matching job.

    map
        emits ``((sort key, entity id), entity)``; the composite key
        makes ties deterministic.
    partition
        range partitioning against the pre-pass boundaries.
    reduce
        slides the window over its sorted run, emitting
        ``("match", pair)`` records; the first/last ``w−1`` entities are
        re-emitted as ``("boundary", (global rank, reduce index,
        entity))`` records for the driver's stitching pass.
    """

    name = "sorted-neighborhood"

    def __init__(
        self,
        plan: SnPlan,
        sort_key: SortKeyFn,
        matcher: Matcher,
        window: int,
    ):
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self.plan = plan
        # Note: named _fn to avoid shadowing MapReduceJob.sort_key, the
        # engine's sort-projection hook.
        self.sort_key_fn = sort_key
        self.matcher = matcher
        self.window = window

    def map(self, key: Any, value: Entity, emit, context: TaskContext) -> None:
        emit((self.sort_key_fn(value), value.qualified_id), value)

    def partition(self, key: tuple, num_reduce_tasks: int) -> int:
        # A key equal to boundary i is the first key of partition i+1,
        # hence bisect_right.
        return bisect_right(self.plan.boundaries, key)

    def reduce(self, key: tuple, values: Sequence[Entity], emit, context) -> None:
        # Grouping on the full composite key gives one call per entity;
        # buffer the window in the context across calls.  The window
        # holds prepared entities so attribute extraction runs once per
        # entity, not once per window pair.
        state = getattr(context, "sn_state", None)
        if state is None:
            state = {"window": [], "run": []}
            context.sn_state = state  # type: ignore[attr-defined]
        matcher = self.matcher
        prepare = matcher.prepare
        match_prepared = matcher.match_prepared
        window = state["window"]
        comparisons = 0
        matched = 0
        for entity in values:
            prepared = prepare(entity)
            for other in window:
                pair = match_prepared(other, prepared)
                if pair is not None:
                    matched += 1
                    emit(None, ("match", pair))
            comparisons += len(window)
            window.append(prepared)
            if len(window) > self.window - 1:
                window.pop(0)
            state["run"].append(entity)
        flush_pair_counters(context, comparisons, matched)

    def configure_reduce(self, context: TaskContext) -> None:
        context.sn_state = None  # type: ignore[attr-defined]


def sorted_neighborhood(
    entities: Sequence[Entity],
    sort_key: SortKeyFn,
    *,
    window: int,
    matcher: Matcher,
    num_map_tasks: int = 2,
    num_reduce_tasks: int = 3,
) -> SnResult:
    """Run MR-based Sorted Neighborhood end to end.

    Returns all matches among pairs at sort distance ≤ window−1,
    including pairs straddling reduce-partition cuts.
    """
    plan = compute_sn_plan(entities, sort_key, num_reduce_tasks)
    runtime = LocalRuntime()
    partitions = make_partitions(list(entities), num_map_tasks)
    job = SortedNeighborhoodJob(plan, sort_key, matcher, window)
    result = runtime.run(job, partitions, num_reduce_tasks)

    matches = MatchResult()
    for record in result.output:
        tag, payload = record.value
        if tag == "match":
            matches.add(payload)
    reduce_comparisons = tuple(
        task.counters.get(StandardCounter.PAIR_COMPARISONS)
        for task in result.reduce_tasks
    )

    # Driver stitching pass: compare pairs that straddle partition cuts.
    ordered = sorted(entities, key=lambda e: (sort_key(e), e.qualified_id))
    cut_ranks = list(plan.offsets[1:])
    partition_of_rank = []
    next_cut = 0
    for rank in range(len(ordered)):
        while next_cut < len(cut_ranks) and rank >= cut_ranks[next_cut]:
            next_cut += 1
        partition_of_rank.append(next_cut)
    boundary_comparisons = 0
    compared: set[tuple[int, int]] = set()
    for cut in cut_ranks:
        lo = max(0, cut - (window - 1))
        hi = min(len(ordered), cut + (window - 1))
        for i in range(lo, cut):
            for j in range(cut, min(hi, i + window)):
                if partition_of_rank[i] == partition_of_rank[j]:
                    continue  # same run: already compared in reduce
                if (i, j) in compared:
                    continue  # windows of two nearby cuts overlap
                compared.add((i, j))
                boundary_comparisons += 1
                pair = matcher.match(ordered[i], ordered[j])
                if pair is not None:
                    matches.add(pair)

    return SnResult(
        matches=matches,
        window=window,
        comparisons=sum(reduce_comparisons) + boundary_comparisons,
        boundary_comparisons=boundary_comparisons,
        reduce_comparisons=reduce_comparisons,
        job=result,
    )


def brute_force_sn_pairs(
    entities: Sequence[Entity], sort_key: SortKeyFn, window: int
) -> set[tuple[str, str]]:
    """Reference: all pairs at sort distance ≤ window−1."""
    ordered = sorted(entities, key=lambda e: (sort_key(e), e.qualified_id))
    pairs: set[tuple[str, str]] = set()
    for i, e1 in enumerate(ordered):
        for j in range(i + 1, min(i + window, len(ordered))):
            pairs.add(tuple(sorted((e1.qualified_id, ordered[j].qualified_id))))
    return pairs
