"""BlockSplit match-task generation and greedy reduce-task assignment.

A *match task* (Section IV) is the unit BlockSplit distributes:

* ``k.*`` — an entire unsplit block ``k`` (encoded ``(k, 0, 0)``);
* ``k.i`` — the self-join of sub-block ``i`` (encoded ``(k, i, i)``);
* ``k.i×j`` — the cross product of sub-blocks ``i > j``
  (encoded ``(k, i, j)``, the paper's ``(k, max, min)``).

Blocks are split iff their pair count exceeds the average reduce
workload ``P/r``.  Match tasks are then sorted by descending pair count
and greedily assigned to the currently least-loaded reduce task — the
classic LPT heuristic.

This module is shared by the executing MR job and the analytic planner,
so both *by construction* agree on the assignment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Protocol, Sequence

from ..er.batch_kernel import CrossPairs, TrianglePairs
from .enumeration import block_pair_count

#: Split-component encoding for an unsplit block ("k.*").
WHOLE_BLOCK = (0, 0)


class BdmLike(Protocol):
    """The slice of the BDM interface match-task generation needs."""

    @property
    def num_blocks(self) -> int: ...

    @property
    def num_partitions(self) -> int: ...

    def size(self, block: int, partition: int | None = None) -> int: ...

    def pairs(self) -> int: ...


@dataclass(frozen=True, slots=True)
class MatchTask:
    """One schedulable chunk of comparison work."""

    block: int
    i: int
    j: int
    comparisons: int

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.block, self.i, self.j)

    @property
    def is_whole_block(self) -> bool:
        return (self.i, self.j) == WHOLE_BLOCK

    @property
    def is_cross_product(self) -> bool:
        return self.i != self.j


@dataclass(frozen=True, slots=True)
class MatchTaskAssignment:
    """The complete BlockSplit schedule for one (BDM, m, r) instance."""

    tasks: tuple[MatchTask, ...]
    reduce_of: dict[tuple[int, int, int], int]
    reduce_comparisons: tuple[int, ...]
    split_blocks: frozenset[int]
    threshold: float

    def task_reduce_index(self, block: int, i: int, j: int) -> int | None:
        """Reduce task of match task ``(block, i, j)``; None if absent."""
        return self.reduce_of.get((block, i, j))

    def is_split(self, block: int) -> bool:
        return block in self.split_blocks

    def tasks_of_block(self, block: int) -> list[MatchTask]:
        return [t for t in self.tasks if t.block == block]


def generate_match_tasks(bdm: BdmLike, num_reduce_tasks: int) -> tuple[list[MatchTask], frozenset[int], float]:
    """Create match tasks per Algorithm 1's ``map configure``.

    Returns ``(tasks, split block set, split threshold P/r)``.

    Unsplit blocks yield one ``k.*`` task — including zero-comparison
    singleton blocks, which the map phase later suppresses (Algorithm 1
    line 33 guards ``comps > 0``); keeping them here preserves the exact
    bookkeeping of the pseudo-code.
    """
    if num_reduce_tasks <= 0:
        raise ValueError(f"num_reduce_tasks must be positive, got {num_reduce_tasks}")
    threshold = bdm.pairs() / num_reduce_tasks
    tasks: list[MatchTask] = []
    split_blocks: set[int] = set()
    m = bdm.num_partitions
    for k in range(bdm.num_blocks):
        comps = block_pair_count(bdm.size(k))
        if comps <= threshold:
            tasks.append(MatchTask(k, *WHOLE_BLOCK, comparisons=comps))
            continue
        split_blocks.add(k)
        for i in range(m):
            size_i = bdm.size(k, i)
            for j in range(i + 1):
                size_j = bdm.size(k, j)
                if size_i * size_j <= 0:
                    continue
                if i == j:
                    tasks.append(MatchTask(k, i, i, block_pair_count(size_i)))
                else:
                    tasks.append(MatchTask(k, i, j, size_i * size_j))
    return tasks, frozenset(split_blocks), threshold


def assign_greedy(
    tasks: Sequence[MatchTask], num_reduce_tasks: int
) -> tuple[dict[tuple[int, int, int], int], list[int]]:
    """LPT assignment: biggest task first, to the least-loaded reduce task.

    Ties on task size break by task key, ties on load by reduce index —
    both deterministic.  Returns the task → reduce-index map and the
    per-reduce-task comparison totals.
    """
    if num_reduce_tasks <= 0:
        raise ValueError(f"num_reduce_tasks must be positive, got {num_reduce_tasks}")
    ordered = sorted(tasks, key=lambda t: (-t.comparisons, t.key))
    # Min-heap of (load, reduce index): pop = least-loaded, lowest index.
    heap = [(0, idx) for idx in range(num_reduce_tasks)]
    loads = [0] * num_reduce_tasks
    assignment: dict[tuple[int, int, int], int] = {}
    for task in ordered:
        load, target = heapq.heappop(heap)
        assignment[task.key] = target
        loads[target] = load + task.comparisons
        heapq.heappush(heap, (loads[target], target))
    return assignment, loads


def plan_block_split(bdm: BdmLike, num_reduce_tasks: int) -> MatchTaskAssignment:
    """Full BlockSplit schedule: generation + greedy assignment."""
    tasks, split_blocks, threshold = generate_match_tasks(bdm, num_reduce_tasks)
    assignment, loads = assign_greedy(tasks, num_reduce_tasks)
    return MatchTaskAssignment(
        tasks=tuple(tasks),
        reduce_of=assignment,
        reduce_comparisons=tuple(loads),
        split_blocks=split_blocks,
        threshold=threshold,
    )


# ---------------------------------------------------------------------------
# Batched match-task execution
# ---------------------------------------------------------------------------
#
# Every reduce function describes its group's candidate pairs as one
# spec (triangle / cross / spans — see :mod:`repro.er.batch_kernel`) and
# hands the whole match task to the matcher in a single ``match_batch``
# call.  These helpers hold the pieces the reduce loops share.


def run_batched_group(matcher, prepared: list, spec, emit, context) -> None:
    """Execute one reduce group's pair spec through ``match_batch``.

    Emits the returned matches in spec pair order and flushes the pair
    counters once per group with the spec's exact pair count.
    """
    from ..mapreduce.counters import flush_pair_counters

    matches = matcher.match_batch(prepared, spec)
    for pair in matches:
        emit(None, pair)
    flush_pair_counters(context, spec.count, len(matches))


def run_self_group(matcher, entities: Sequence, emit, context) -> None:
    """All pairs of one group: a triangular batch."""
    prepare = matcher.prepare
    prepared = [prepare(e) for e in entities]
    run_batched_group(matcher, prepared, TrianglePairs(len(prepared)), emit, context)


def buffered_first(members: Sequence[tuple[object, bool]]) -> tuple[list, int]:
    """Order a cross group's ``(item, buffered)`` members buffered run first.

    Returns the items with every buffered one ahead of every streamed
    one (arrival order kept on both sides) and the buffered count.  The
    shuffle normally delivers the buffered run first and contiguously,
    which makes this the identity; interleaved input is reordered so
    that every buffered × streamed pair is still compared exactly once.
    """
    buffered = [item for item, is_buffered in members if is_buffered]
    split = len(buffered)
    buffered.extend(item for item, is_buffered in members if not is_buffered)
    return buffered, split


def run_cross_group(
    matcher, members: Sequence[tuple[object, bool]], emit, context
) -> None:
    """Every buffered × streamed pair of a group: a cross batch.

    ``members`` are the group's ``(entity, buffered)`` pairs in arrival
    order; see :func:`buffered_first` for out-of-order input.
    """
    entities, split = buffered_first(members)
    prepare = matcher.prepare
    prepared = [prepare(e) for e in entities]
    run_batched_group(
        matcher, prepared, CrossPairs(split, len(prepared)), emit, context
    )


def run_sub_block_cross(matcher, values: Sequence, emit, context) -> None:
    """BlockSplit's ``k.i×j`` cross product over ``(entity, partition)`` values.

    Values arrive partition-contiguously (stable shuffle), so the first
    partition index delimits the buffered sub-block — Algorithm 1 lines
    56-65.
    """
    if values:
        first = values[0][1]
        run_cross_group(
            matcher, [(e, p == first) for e, p in values], emit, context
        )
