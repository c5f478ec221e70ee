"""Property tests: the batched pair kernel is byte-identical to the
scalar kernels, on both the numpy and the pure-stdlib path.

`score_pair_batch` must reproduce `levenshtein_similarity_bounded`
score for score on arbitrary unicode batches — including empty strings,
strings past the 64-char Myers limit, duplicated group members, and
thresholds at both edges — and `ThresholdMatcher.match_batch` must
emit exactly the pairs (same order, same counters) the per-pair
reference matcher emits through the base `Matcher.match_batch`.
"""

from __future__ import annotations

import random

import pytest

import repro.er.batch_kernel as bk
from repro.er.batch_kernel import (
    CrossPairs,
    SpanPairs,
    TrianglePairs,
    active_numpy,
    matching_positions,
    score_pair_batch,
)
from repro.er.entity import Entity
from repro.er.matching import Matcher, ThresholdMatcher
from repro.er.similarity import (
    levenshtein_distance_reference,
    levenshtein_similarity_bounded,
    myers_distance_masks,
    myers_masks,
)

from ..test_hotpath_equivalence import reference_matcher
from .test_similarity_kernels import myers_reference

ALPHABET = "abcdeé中文ß😀"
THRESHOLDS = [0.0, 0.3, 0.8, 1.0]


@pytest.fixture(
    params=[
        pytest.param(
            "numpy",
            marks=pytest.mark.skipif(
                active_numpy() is None, reason="numpy not installed"
            ),
        ),
        "stdlib",
    ]
)
def kernel_mode(request, monkeypatch):
    """Run the test body on both kernel paths.

    ``numpy`` also drops the minimum-batch and minimum-lane heuristics
    so small batches exercise the vectorized path all the way into the
    batched Myers recurrence; ``stdlib`` blanks the module's numpy
    handle, the same state a numpy-less interpreter starts in.
    """
    if request.param == "numpy":
        monkeypatch.setattr(bk, "NUMPY_MIN_PAIRS", 0)
        monkeypatch.setattr(bk, "MYERS_MIN_LANES", 0)
    else:
        monkeypatch.setattr(bk, "_numpy", None)
    return request.param


def _random_texts(rng: random.Random, n: int) -> list[str]:
    texts: list[str] = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.08:
            texts.append("")  # empty: the Myers mask edge case
        elif kind < 0.18 and texts:
            texts.append(rng.choice(texts))  # duplicate group member
        elif kind < 0.28:
            # Past the 64-char Myers limit: the banded path.
            length = rng.randrange(65, 120)
            texts.append("".join(rng.choice(ALPHABET) for _ in range(length)))
        else:
            length = rng.randrange(0, 40)
            texts.append("".join(rng.choice(ALPHABET) for _ in range(length)))
    return texts


class TestPairSpecs:
    """count / iter_pairs / pair_at / index_arrays describe one pair set."""

    def _check(self, spec):
        pairs = list(spec.iter_pairs())
        assert len(pairs) == spec.count
        assert pairs == [spec.pair_at(k) for k in range(spec.count)]
        np = active_numpy()
        if np is not None and spec.count:
            left, right = spec.index_arrays(np)
            assert list(zip(left.tolist(), right.tolist())) == pairs

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 40])
    def test_triangle(self, n):
        spec = TrianglePairs(n)
        assert spec.count == n * (n - 1) // 2
        self._check(spec)
        for i, j in spec.iter_pairs():
            assert 0 <= i < j < n

    @pytest.mark.parametrize("split,total", [(0, 0), (0, 5), (5, 5), (2, 7), (4, 9)])
    def test_cross(self, split, total):
        spec = CrossPairs(split, total)
        assert spec.count == split * (total - split)
        self._check(spec)
        for i, j in spec.iter_pairs():
            assert 0 <= i < split <= j < total

    def test_spans(self):
        spec = SpanPairs([(3, 0, 2), (5, 1, 4), (8, 0, 1)])
        assert spec.count == 2 + 3 + 1
        assert list(spec.iter_pairs()) == [
            (0, 3), (1, 3), (1, 5), (2, 5), (3, 5), (0, 8),
        ]
        self._check(spec)
        self._check(SpanPairs([]))


class TestMyersMasks:
    def test_masks_match_scalar_myers(self):
        rng = random.Random(11)
        for _ in range(300):
            pattern = "".join(
                rng.choice(ALPHABET) for _ in range(rng.randrange(1, 65))
            )
            text = "".join(
                rng.choice(ALPHABET) for _ in range(rng.randrange(0, 120))
            )
            masks = myers_masks(pattern)
            for md in (None, rng.randrange(0, 10)):
                assert myers_distance_masks(masks, text, md) == myers_reference(
                    pattern, text, md
                )

    def test_masks_are_reusable(self):
        masks = myers_masks("kettle")
        assert myers_distance_masks(masks, "kettle", None) == 0
        assert myers_distance_masks(masks, "settle", None) == 1
        assert myers_distance_masks(
            masks, "cattle", None
        ) == levenshtein_distance_reference("kettle", "cattle")


class TestScorePairBatch:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_oracle(self, kernel_mode, seed):
        rng = random.Random(6000 + seed)
        for _ in range(20):
            texts = _random_texts(rng, rng.randrange(2, 14))
            spec = TrianglePairs(len(texts))
            threshold = rng.choice(THRESHOLDS)
            scores = score_pair_batch(texts, spec, threshold)
            for k, (i, j) in enumerate(spec.iter_pairs()):
                expected = levenshtein_similarity_bounded(
                    texts[i], texts[j], threshold
                )
                assert float(scores[k]) == expected, (texts[i], texts[j], threshold)

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_reference_dp(self, kernel_mode, seed):
        """Straight to the classic DP, not just the scalar dispatch."""
        rng = random.Random(7000 + seed)
        texts = _random_texts(rng, 12)
        threshold = 0.8
        spec = TrianglePairs(len(texts))
        scores = score_pair_batch(texts, spec, threshold)
        for k, (i, j) in enumerate(spec.iter_pairs()):
            a, b = texts[i], texts[j]
            longest = max(len(a), len(b))
            if longest == 0:
                expected = 1.0
            else:
                distance = levenshtein_distance_reference(a, b)
                similarity = 1.0 - distance / longest
                expected = similarity if similarity >= threshold else 0.0
                if distance > int((1.0 - threshold) * longest):
                    expected = 0.0
            assert float(scores[k]) == expected, (a, b)

    def test_cross_and_span_specs(self, kernel_mode):
        rng = random.Random(42)
        texts = _random_texts(rng, 10)
        for spec in (
            CrossPairs(4, 10),
            SpanPairs([(2, 0, 2), (7, 1, 6), (9, 0, 9)]),
        ):
            scores = score_pair_batch(texts, spec, 0.8)
            for k, (i, j) in enumerate(spec.iter_pairs()):
                assert float(scores[k]) == levenshtein_similarity_bounded(
                    texts[i], texts[j], 0.8
                )

    def test_matching_positions(self, kernel_mode):
        texts = ["kettle", "kettle", "kettlex", "other"]
        spec = TrianglePairs(4)
        scores = score_pair_batch(texts, spec, 0.8)
        positions = matching_positions(scores, 0.8)
        expected = [
            k
            for k, (i, j) in enumerate(spec.iter_pairs())
            if levenshtein_similarity_bounded(texts[i], texts[j], 0.8) >= 0.8
        ]
        assert positions == expected

    def test_empty_batch(self, kernel_mode):
        assert len(score_pair_batch([], TrianglePairs(0), 0.8)) == 0

    def test_each_distinct_pair_scored_once(self, kernel_mode, monkeypatch):
        """Duplicate-heavy batches score each distinct string pair once."""
        calls = []
        if kernel_mode == "numpy":
            real = bk.myers_distance_batch

            def counting(np, patterns, texts, max_distances):
                calls.extend(zip(patterns, texts))
                return real(np, patterns, texts, max_distances)

            monkeypatch.setattr(bk, "myers_distance_batch", counting)
        else:
            real = bk.myers_distance_masks

            def counting(masks, text, max_distance):
                calls.append(text)
                return real(masks, text, max_distance)

            monkeypatch.setattr(bk, "myers_distance_masks", counting)
        texts = ["kettle", "kettles", "settle"] * 4
        scores = score_pair_batch(texts, TrianglePairs(len(texts)), 0.8)
        # Distinct unequal pairs: {kettle, kettles}, {kettle, settle},
        # {kettles, settle} — and nothing else reaches Myers.
        assert len(calls) == 3
        for k, (i, j) in enumerate(TrianglePairs(len(texts)).iter_pairs()):
            assert float(scores[k]) == levenshtein_similarity_bounded(
                texts[i], texts[j], 0.8
            )


def _triples(pairs):
    return [(p.id1, p.id2, p.similarity) for p in pairs]


class TestMatchBatchEquivalence:
    def _entities(self, rng, n):
        return [
            Entity(f"e{k}", {"title": text})
            for k, text in enumerate(_random_texts(rng, n))
        ]

    def _check(self, entities, spec, threshold=0.8, kernel=None, reference=None):
        kernel = kernel if kernel is not None else ThresholdMatcher("title", threshold)
        reference = reference if reference is not None else reference_matcher(threshold)
        got = kernel.match_batch([kernel.prepare(e) for e in entities], spec)
        expected = reference.match_batch(
            [reference.prepare(e) for e in entities], spec
        )
        assert _triples(got) == _triples(expected)
        assert (kernel.comparisons, kernel.matches_found) == (
            reference.comparisons,
            reference.matches_found,
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_same_pairs_and_counters(self, kernel_mode, seed):
        rng = random.Random(8000 + seed)
        for spec_factory in (
            lambda n: TrianglePairs(n),
            lambda n: CrossPairs(n // 2, n),
            lambda n: SpanPairs([(j, j // 3, j) for j in range(1, n)]),
        ):
            entities = self._entities(rng, rng.randrange(4, 12))
            self._check(entities, spec_factory(len(entities)),
                        threshold=rng.choice(THRESHOLDS))

    @pytest.mark.parametrize("seed", range(3))
    def test_counters_accumulate_across_groups(self, kernel_mode, seed):
        """One matcher over a sequence of groups: every group's matches
        and the running counters equal the reference matcher's."""
        rng = random.Random(9500 + seed)
        kernel = ThresholdMatcher("title", 0.8)
        reference = reference_matcher(0.8)
        for _ in range(5):
            entities = self._entities(rng, rng.randrange(3, 9))
            self._check(entities, TrianglePairs(len(entities)),
                        kernel=kernel, reference=reference)

    def test_match_prepared_is_a_batch_of_one(self, kernel_mode):
        matcher = ThresholdMatcher("title", 0.8)
        a, b, c = (
            matcher.prepare(Entity(i, {"title": t}))
            for i, t in (("b", "kettle"), ("a", "kettles"), ("c", "toaster"))
        )
        pair = matcher.match_prepared(a, b)
        assert (pair.id1, pair.id2, pair.similarity) == (
            "R:a", "R:b", levenshtein_similarity_bounded("kettle", "kettles", 0.8)
        )
        assert matcher.match_prepared(a, c) is None
        assert (matcher.comparisons, matcher.matches_found) == (2, 1)

    def test_base_matcher_batches_via_match_prepared(self):
        """Custom matchers get the identity batching: per-pair calls in
        spec order, so overridden similarity()/counters behave exactly
        as under the scalar loop."""

        class EqualTitles(Matcher):
            def similarity(self, a, b):
                return 1.0 if a.get("title") == b.get("title") else 0.0

            def is_match(self, score):
                return score >= 1.0

        entities = [
            Entity("a", {"title": "x"}),
            Entity("b", {"title": "x"}),
            Entity("c", {"title": "y"}),
        ]
        matcher = EqualTitles()
        prepared = [matcher.prepare(e) for e in entities]
        got = matcher.match_batch(prepared, TrianglePairs(3))
        assert [(p.id1, p.id2) for p in got] == [("R:a", "R:b")]
        assert matcher.comparisons == 3

    def test_threshold_matcher_with_similarity_fn_uses_identity_path(self):
        """A custom similarity_fn disables prepared texts; match_batch
        must fall back to the per-pair path, not the kernel."""
        matcher = ThresholdMatcher(
            "title", 0.5, similarity_fn=lambda a, b: 0.75
        )
        entities = [Entity("a", {"title": "p"}), Entity("b", {"title": "q"})]
        prepared = [matcher.prepare(e) for e in entities]
        got = matcher.match_batch(prepared, TrianglePairs(2))
        assert [(p.id1, p.id2, p.similarity) for p in got] == [
            ("R:a", "R:b", 0.75)
        ]
