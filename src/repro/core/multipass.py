"""Multi-pass blocking (the paper's future work, Section VIII).

Multi-pass blocking assigns *several* blocking keys per entity (e.g.
title prefix in one pass, manufacturer in another) so that true matches
missed by one key can be caught by another.  The natural MR realisation
keeps the machinery of this library unchanged: each pass's key is
tagged with its pass index, the tagged keys define disjoint block
universes, and the existing strategies balance the union of all blocks.

Two entities sharing keys in several passes are co-located in several
blocks; the pair is then *compared* once per shared block.  The
``deduplicate`` flag reports how much work that redundancy costs (the
paper notes advanced signature schemes avoid it); the match *result* is
set-valued and therefore always duplicate-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..er.blocking import BlockingFunction, CallableBlocking, MultiPassBlocking
from ..er.entity import Entity
from ..er.matching import MatchResult, ThresholdMatcher
from ..engine.backend import ExecutionBackend
from ..engine.pipeline import ERPipeline
from ..engine.result import PipelineResult


@dataclass(frozen=True, slots=True)
class MultiPassResult:
    """Outcome of a multi-pass ER run."""

    matches: MatchResult
    pass_results: tuple[PipelineResult, ...]
    total_comparisons: int
    redundant_comparisons: int

    @property
    def num_passes(self) -> int:
        return len(self.pass_results)


class MultiPassERWorkflow:
    """Run one load-balanced ER workflow per blocking pass and merge.

    Each pass is an independent two-job workflow over the same input
    (mirroring how a Hadoop deployment would chain one job pair per
    pass); results are unioned.  Redundant comparisons — pairs
    co-blocked by more than one pass — are counted by comparing the
    union of per-pass candidate sets against their sum.
    """

    def __init__(
        self,
        strategy: str,
        blocking: MultiPassBlocking,
        matcher_factory=None,
        *,
        num_map_tasks: int = 2,
        num_reduce_tasks: int = 3,
        backend: ExecutionBackend | str = "serial",
    ):
        self.strategy = strategy
        self.blocking = blocking
        self._matcher_factory = (
            matcher_factory if matcher_factory is not None else ThresholdMatcher
        )
        self.num_map_tasks = num_map_tasks
        self.num_reduce_tasks = num_reduce_tasks
        self.backend = backend

    def run(self, entities: Sequence[Entity]) -> MultiPassResult:
        matches = MatchResult()
        pass_results: list[PipelineResult] = []
        total_comparisons = 0
        candidate_union: set[tuple[object, object]] = set()
        for index, blocking_pass in enumerate(self.blocking.passes):
            pipeline = ERPipeline(
                self.strategy,
                _tagged(blocking_pass, index),
                self._matcher_factory(),
                num_map_tasks=self.num_map_tasks,
                num_reduce_tasks=self.num_reduce_tasks,
                backend=self.backend,
            )
            result = pipeline.run(list(entities))
            pass_results.append(result)
            matches.merge(result.matches)
            total_comparisons += result.total_comparisons()
            candidate_union |= _candidate_pairs(entities, blocking_pass)
        redundant = total_comparisons - len(candidate_union)
        return MultiPassResult(
            matches=matches,
            pass_results=tuple(pass_results),
            total_comparisons=total_comparisons,
            redundant_comparisons=redundant,
        )


def _tagged(blocking: BlockingFunction, pass_index: int) -> BlockingFunction:
    """Tag a pass's keys so passes never share blocks."""

    def key_for(entity: Entity):
        key = blocking.key_for(entity)
        if key is None:
            return None
        return (pass_index, key)

    return CallableBlocking(key_for, name=f"pass-{pass_index}")


def _candidate_pairs(
    entities: Sequence[Entity], blocking: BlockingFunction
) -> set[tuple[object, object]]:
    pairs: set[tuple[object, object]] = set()
    for block in blocking.partition_entities(entities).values():
        ids = sorted(e.qualified_id for e in block)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                pairs.add((a, b))
    return pairs
