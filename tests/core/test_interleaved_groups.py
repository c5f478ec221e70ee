"""Cross reduce groups whose two runs arrive interleaved.

The stable shuffle delivers a cross group's buffered run (BlockSplit's
first partition, dual-source R) before its streamed run, but the reduce
functions must not depend on that for correctness: fed an interleaved
group directly, every buffered × streamed pair is still compared
exactly once and scored like the per-pair reference.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.bdm import analytic_bdm_from_block_sizes
from repro.core.blocksplit import BlockSplitJob
from repro.core.delta import DeltaBDM, DeltaBlockSplitJob
from repro.core.keys import BlockSplitKey, DualBlockSplitKey
from repro.core.match_tasks import buffered_first
from repro.core.two_source import DualBlockSplitJob, DualSourceBDM
from repro.er.entity import Entity
from repro.er.matching import RecordingMatcher, ThresholdMatcher, brute_force_pairs
from repro.er.similarity import levenshtein_similarity_bounded_reference
from repro.mapreduce.counters import StandardCounter
from repro.mapreduce.job import JobConfig, TaskContext

THRESHOLD = 0.8
TITLES = ["kettle", "kettles", "settle", "toaster", "kettle", "cattle", "kettlex"]

#: Partition / source markers per arrival; the first marker's run is
#: the buffered side.  All but the first are interleaved.
INTERLEAVINGS = [
    "AAABBB",
    "ABABAB",
    "ABBAAB",
    "AABBBAB",
    "BAAB",
]


def _group(pattern):
    """(entity, is_first_run) members for an arrival ``pattern``."""
    return [
        (Entity(f"e{k}", {"title": TITLES[k % len(TITLES)]}), marker == pattern[0])
        for k, marker in enumerate(pattern)
    ]


def _cross_pairs(entities_a, entities_b):
    return (
        brute_force_pairs(entities_a + entities_b)
        - brute_force_pairs(entities_a)
        - brute_force_pairs(entities_b)
    )


def _reduce(job, key, values):
    context = TaskContext(JobConfig(num_map_tasks=2, num_reduce_tasks=2),
                          reduce_index=0)
    emitted = []
    job.reduce(key, values, lambda _k, value: emitted.append(value), context)
    return emitted, context.counters


def _reference_matches(entities, expected_pairs):
    titles = {e.qualified_id: e.get("title") for e in entities}
    out = {}
    for id1, id2 in expected_pairs:
        score = levenshtein_similarity_bounded_reference(
            titles[id1], titles[id2], THRESHOLD
        )
        if score >= THRESHOLD:
            out[(id1, id2)] = score
    return out


def _blocksplit(matcher):
    bdm = analytic_bdm_from_block_sizes([[4, 4]])
    return BlockSplitJob(bdm, matcher, 2), BlockSplitKey(0, 0, 1, 0)


def _delta_blocksplit(matcher):
    bdm = DeltaBDM(analytic_bdm_from_block_sizes([[4, 4]]), num_old_partitions=1)
    return DeltaBlockSplitJob(bdm, matcher, 2), BlockSplitKey(0, 0, 1, 0)


def _partition_values(members):
    # The first run's partition is 1 (delta: the *new* sub-block),
    # the other run's 0 — the markers need not be ordered.
    return [(entity, 1 if first else 0) for entity, first in members]


def _dual_values(members):
    # R is the buffered side; the pattern may start with either.
    return [
        entity.with_source("R" if first else "S") for entity, first in members
    ]


JOBS = {
    "blocksplit": (_blocksplit, _partition_values),
    "delta-blocksplit": (_delta_blocksplit, _partition_values),
    "dual-blocksplit": (
        lambda matcher: (
            DualBlockSplitJob(
                DualSourceBDM(analytic_bdm_from_block_sizes([[4, 4]]), ["R", "S"]),
                matcher,
                2,
            ),
            DualBlockSplitKey(0, 0, 0, 1, "R"),
        ),
        _dual_values,
    ),
}


def _sides(values):
    entities = [v[0] if isinstance(v, tuple) else v for v in values]
    if isinstance(values[0], tuple):
        first = values[0][1]
        marks = [p == first for _e, p in values]
    else:
        marks = [e.source == "R" for e in entities]
    side_a = [e for e, m in zip(entities, marks) if m]
    side_b = [e for e, m in zip(entities, marks) if not m]
    return entities, side_a, side_b


@pytest.mark.parametrize("pattern", INTERLEAVINGS)
@pytest.mark.parametrize("job_name", sorted(JOBS))
def test_every_cross_pair_compared_exactly_once(job_name, pattern):
    build, to_values = JOBS[job_name]
    matcher = RecordingMatcher()
    job, key = build(matcher)
    values = to_values(_group(pattern))
    _emitted, counters = _reduce(job, key, values)
    _entities, side_a, side_b = _sides(values)
    expected = _cross_pairs(side_a, side_b)
    assert Counter(matcher.compared) == Counter(expected)
    assert counters.get(StandardCounter.PAIR_COMPARISONS) == len(expected)


@pytest.mark.parametrize("pattern", INTERLEAVINGS)
@pytest.mark.parametrize("job_name", sorted(JOBS))
def test_matches_equal_reference_similarity(job_name, pattern):
    build, to_values = JOBS[job_name]
    job, key = build(ThresholdMatcher("title", THRESHOLD))
    values = to_values(_group(pattern))
    emitted, counters = _reduce(job, key, values)
    entities, side_a, side_b = _sides(values)
    expected = _reference_matches(entities, _cross_pairs(side_a, side_b))
    assert expected  # the titles make some cross pairs match
    assert {(p.id1, p.id2): p.similarity for p in emitted} == expected
    assert len(emitted) == len(expected)
    assert counters.get(StandardCounter.PAIRS_MATCHED) == len(expected)


def test_dual_r_after_s():
    """An R entity arriving after an S entity still meets every S."""
    matcher = RecordingMatcher()
    job, key = JOBS["dual-blocksplit"][0](matcher)
    r1, s1, r2, s2 = (
        Entity(name, {"title": "kettle"}, source)
        for name, source in (("r1", "R"), ("s1", "S"), ("r2", "R"), ("s2", "S"))
    )
    _reduce(job, key, [s1, r1, s2, r2])
    assert sorted(matcher.compared) == sorted(
        _cross_pairs([r1, r2], [s1, s2])
    )


def test_buffered_first_is_stable():
    members = [("a", True), ("x", False), ("b", True), ("y", False), ("c", True)]
    assert buffered_first(members) == (["a", "b", "c", "x", "y"], 3)
    contiguous = [("a", True), ("b", True), ("x", False)]
    assert buffered_first(contiguous) == (["a", "b", "x"], 2)
