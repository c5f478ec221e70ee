"""Batched pair scoring over packed arrays — the vectorized match kernel.

Every reduce task hands its candidate pairs to the matcher in one call.
The pairs are described *symbolically* by a pair spec — a triangle
(:class:`TrianglePairs`), a cross product (:class:`CrossPairs`) or a
list of contiguous spans (:class:`SpanPairs`) — instead of materialized
``(i, j)`` tuples, and :func:`score_pair_batch` scores the whole batch:

1. the group's strings are packed once into code/length arrays (each
   *distinct* string gets one integer code, so duplicate-heavy groups
   collapse),
2. an exact-equality check on the codes settles same-string pairs at
   1.0,
3. a length filter settles hopeless pairs at 0.0 (the
   ``diff > ⌊(1 − t)·longest⌋`` test of
   :func:`~repro.er.similarity.levenshtein_similarity_bounded`),
4. the surviving pairs are reduced to their distinct unordered
   ``(lo, hi)`` code pairs, and each distinct pair is scored exactly
   once by the same bounded edit-distance kernels the scalar
   similarity calls.

When numpy is importable, steps 2–4 use int64/float64 array arithmetic
(``np.unique`` over ``lo·n + hi`` yields the distinct pairs and the
gather index back to pair order), and the Myers recurrence itself runs
*batched*: every distinct surviving pair that needs the bit-parallel
kernel becomes one ``uint64`` lane of
:func:`repro.er.similarity.myers_distance_batch`, which advances all
lanes one text position per vectorized step (with the Ukkonen early
exit applied vector-wide through a per-lane alive mask).  Otherwise a
pure-stdlib loop with the same dedup structure runs, with Myers pattern
masks prepacked per distinct string.

Both paths return exactly the scores
:func:`~repro.er.similarity.levenshtein_similarity_bounded` gives for
each pair: every score is either ``1.0``/``0.0`` from the same
short-circuits or the output of the same bounded Myers/banded kernels.
numpy stays an *optional* dependency (the ``fast`` extra); set
``REPRO_ER_FORCE_STDLIB=1`` to force the fallback with numpy installed.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from math import isqrt
from typing import Iterator, Sequence

from .similarity import (
    levenshtein_similarity_bounded,
    myers_distance_batch,
    myers_distance_masks,
    myers_masks,
)

try:  # pragma: no cover - exercised via both CI legs
    if os.environ.get("REPRO_ER_FORCE_STDLIB"):
        raise ImportError("numpy disabled by REPRO_ER_FORCE_STDLIB")
    import numpy as _numpy
except ImportError:  # pragma: no cover
    _numpy = None

#: Below this many pairs the numpy path's array-construction overhead
#: outweighs the vectorization win on small groups; the stdlib loop
#: runs instead.  Both paths are byte-identical, so this is purely a
#: performance knob.
NUMPY_MIN_PAIRS = 16

#: Below this many Myers-eligible lanes the batched recurrence's setup
#: (mask table, padded text matrix) outweighs its per-step win and the
#: per-distinct-pair scalar loop runs instead.  Byte-identical either
#: way; purely a performance knob.
MYERS_MIN_LANES = 4


def active_numpy():
    """The numpy module the kernel will use, or ``None`` (stdlib fallback)."""
    return _numpy


class TrianglePairs:
    """All pairs ``(i, j)`` with ``i < j`` over a self-join group of ``n``.

    Pair order matches the streaming-buffer loops it replaces: ``j``
    ascending (arrival order of the right entity), ``i`` ascending
    within each ``j`` (buffer order).
    """

    __slots__ = ("n", "count")

    def __init__(self, n: int):
        self.n = n
        self.count = n * (n - 1) // 2

    def iter_pairs(self) -> Iterator[tuple[int, int]]:
        for j in range(1, self.n):
            for i in range(j):
                yield i, j

    def pair_at(self, k: int) -> tuple[int, int]:
        # k = j·(j−1)/2 + i with 0 ≤ i < j; isqrt inverts the triangle
        # number exactly (8k+1 lies in [(2j−1)², (2j+1)²) for the row).
        j = (1 + isqrt(8 * k + 1)) // 2
        return k - j * (j - 1) // 2, j

    def index_arrays(self, np):
        j = np.repeat(
            np.arange(1, self.n, dtype=np.int64), np.arange(1, self.n)
        )
        i = np.arange(self.count, dtype=np.int64) - j * (j - 1) // 2
        return i, j


class CrossPairs:
    """All pairs ``(i, j)`` of a buffered run vs a streamed run.

    ``i`` ranges over the buffered prefix ``[0, split)`` and ``j`` over
    the streamed suffix ``[split, total)`` — the shape of BlockSplit's
    split×split cross tasks and of dual-source (R×S) groups, where the
    stable shuffle delivers one run contiguously before the other.
    Order: ``j`` ascending, ``i`` ascending within each ``j``.
    """

    __slots__ = ("split", "total", "count")

    def __init__(self, split: int, total: int):
        self.split = split
        self.total = total
        self.count = split * (total - split)

    def iter_pairs(self) -> Iterator[tuple[int, int]]:
        for j in range(self.split, self.total):
            for i in range(self.split):
                yield i, j

    def pair_at(self, k: int) -> tuple[int, int]:
        j, i = divmod(k, self.split)
        return i, self.split + j

    def index_arrays(self, np):
        streamed = self.total - self.split
        i = np.tile(np.arange(self.split, dtype=np.int64), streamed)
        j = np.repeat(
            np.arange(self.split, self.total, dtype=np.int64), self.split
        )
        return i, j


class SpanPairs:
    """Pairs where each streamed entity sees one contiguous buffer run.

    ``spans`` is a list of ``(j, start, stop)``: entity ``j`` compares
    against buffer positions ``[start, stop)``.  This is PairRange's
    natural shape — ``row_span``/``r_span`` already yield index
    intervals, which are recorded here instead of being materialized
    into pairs — and also covers delta groups (each new entity vs the
    whole buffered prefix).  Order: spans in given order (``j``
    ascending at every call site), ``i`` ascending within a span.
    """

    __slots__ = ("spans", "count", "_offsets")

    def __init__(self, spans: Sequence[tuple[int, int, int]]):
        self.spans = spans
        offsets = [0]
        total = 0
        for _j, start, stop in spans:
            total += stop - start
            offsets.append(total)
        self._offsets = offsets
        self.count = total

    def iter_pairs(self) -> Iterator[tuple[int, int]]:
        for j, start, stop in self.spans:
            for i in range(start, stop):
                yield i, j

    def pair_at(self, k: int) -> tuple[int, int]:
        s = bisect_right(self._offsets, k) - 1
        j, start, _stop = self.spans[s]
        return start + (k - self._offsets[s]), j

    def index_arrays(self, np):
        if not self.spans:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        i = np.concatenate(
            [np.arange(start, stop, dtype=np.int64) for _j, start, stop in self.spans]
        )
        j = np.repeat(
            np.fromiter((j for j, _s, _t in self.spans), dtype=np.int64, count=len(self.spans)),
            np.fromiter((stop - start for _j, start, stop in self.spans), dtype=np.int64, count=len(self.spans)),
        )
        return i, j


def score_pair_batch(texts: Sequence[str], pairs, threshold: float):
    """Score every pair of a batch, in the spec's pair order.

    ``texts`` holds the group's strings (position-aligned with the
    indices ``pairs`` yields) and ``pairs`` is a :class:`TrianglePairs`/
    :class:`CrossPairs`/:class:`SpanPairs` spec.  Returns one bounded
    similarity per pair — a float64 ndarray on the numpy path, a list
    on the stdlib path.
    """
    np = _numpy
    if np is not None and pairs.count >= NUMPY_MIN_PAIRS:
        return _score_numpy(np, texts, pairs, threshold)
    return _score_stdlib(texts, pairs, threshold)


def matching_positions(scores, threshold: float) -> list[int]:
    """Positions (pair order) whose score clears ``threshold``."""
    if _numpy is not None and isinstance(scores, _numpy.ndarray):
        return _numpy.nonzero(scores >= threshold)[0].tolist()
    return [k for k, score in enumerate(scores) if score >= threshold]


def _encode(texts: Sequence[str]) -> tuple[list[int], list[str]]:
    """Pack strings into integer codes; one code per distinct string."""
    code_of: dict[str, int] = {}
    codes: list[int] = []
    distinct: list[str] = []
    for text in texts:
        code = code_of.get(text)
        if code is None:
            code = len(distinct)
            code_of[text] = code
            distinct.append(text)
        codes.append(code)
    return codes, distinct


def _score_numpy(np, texts, pairs, threshold):
    codes, distinct = _encode(texts)
    left, right = pairs.index_arrays(np)
    codes_arr = np.fromiter(codes, dtype=np.int64, count=len(codes))
    lengths = np.fromiter(
        (len(s) for s in distinct), dtype=np.int64, count=len(distinct)
    )
    ca = codes_arr[left]
    cb = codes_arr[right]
    la = lengths[ca]
    lb = lengths[cb]
    longest = np.maximum(la, lb)
    scores = np.zeros(pairs.count, dtype=np.float64)
    equal = ca == cb
    scores[equal] = 1.0
    # float64 multiply + int64 truncation ≡ the scalar int((1−t)·longest).
    budget = ((1.0 - threshold) * longest).astype(np.int64)
    survive = ~equal & (np.abs(la - lb) <= budget)
    if not survive.any():
        return scores
    sa = ca[survive]
    sb = cb[survive]
    ndistinct = np.int64(len(distinct))
    keys, inverse = np.unique(
        np.minimum(sa, sb) * ndistinct + np.maximum(sa, sb), return_inverse=True
    )
    lo, hi = np.divmod(keys, ndistinct)
    unique_scores = _score_distinct(
        np, distinct, lo.tolist(), hi.tolist(), threshold
    )
    scores[survive] = np.array(unique_scores, dtype=np.float64)[inverse]
    return scores


def _score_stdlib(texts, pairs, threshold):
    codes, distinct = _encode(texts)
    lengths = [len(s) for s in distinct]
    scores = [0.0] * pairs.count
    one_minus = 1.0 - threshold
    # Distinct surviving (lo, hi) code pairs → their slot; each
    # surviving position remembers its slot for the final gather.
    slot_of: dict[tuple[int, int], int] = {}
    survivors: list[tuple[int, int]] = []
    for k, (i, j) in enumerate(pairs.iter_pairs()):
        a = codes[i]
        b = codes[j]
        if a == b:
            scores[k] = 1.0
            continue
        la = lengths[a]
        lb = lengths[b]
        if la >= lb:
            longest = la
            diff = la - lb
        else:
            longest = lb
            diff = lb - la
        if diff > int(one_minus * longest):
            continue  # length filter: stays 0.0
        key = (a, b) if a < b else (b, a)
        survivors.append((k, slot_of.setdefault(key, len(slot_of))))
    if survivors:
        unique_scores = _score_distinct(
            None,
            distinct,
            [a for a, _b in slot_of],
            [b for _a, b in slot_of],
            threshold,
        )
        for k, slot in survivors:
            scores[k] = unique_scores[slot]
    return scores


def _score_distinct(np, distinct, lo_codes, hi_codes, threshold) -> list[float]:
    """Bounded similarity of each distinct ``(lo, hi)`` code pair.

    The two strings of a pair always differ.  Pairs whose shorter side
    has 1–64 characters are Myers lanes: batched through
    :func:`~repro.er.similarity.myers_distance_batch` when ``np`` is
    active and at least :data:`MYERS_MIN_LANES` lanes qualify, else run
    one by one over pattern masks prepacked per distinct string.  The
    rest (empty vs non-empty, >64-char patterns) take
    :func:`~repro.er.similarity.levenshtein_similarity_bounded`'s own
    dispatch.
    """
    one_minus = 1.0 - threshold
    scores = [0.0] * len(lo_codes)
    lanes: list[tuple[int, str, str]] = []
    for slot, (lo, hi) in enumerate(zip(lo_codes, hi_codes)):
        a = distinct[lo]
        b = distinct[hi]
        text, pattern = (a, b) if len(a) >= len(b) else (b, a)
        if 1 <= len(pattern) <= 64:
            lanes.append((slot, pattern, text))
        else:
            scores[slot] = levenshtein_similarity_bounded(a, b, threshold)
    if not lanes:
        return scores
    if np is not None and len(lanes) >= MYERS_MIN_LANES:
        count = len(lanes)
        budgets = [int(one_minus * len(text)) for _s, _p, text in lanes]
        distances = myers_distance_batch(
            np,
            [pattern for _s, pattern, _t in lanes],
            [text for _s, _p, text in lanes],
            budgets,
        )
        longests = np.fromiter(
            (len(text) for _s, _p, text in lanes), dtype=np.int64, count=count
        )
        budgets_arr = np.fromiter(budgets, dtype=np.int64, count=count)
        # Same float64 arithmetic as the scalar ``1.0 - d / longest``.
        sims = np.where(distances > budgets_arr, 0.0, 1.0 - distances / longests)
        for (slot, _p, _t), sim in zip(lanes, sims.tolist()):
            scores[slot] = sim
        return scores
    masks_of: dict[str, object] = {}
    for slot, pattern, text in lanes:
        longest = len(text)
        max_distance = int(one_minus * longest)
        masks = masks_of.get(pattern)
        if masks is None:
            masks = masks_of[pattern] = myers_masks(pattern)
        distance = myers_distance_masks(masks, text, max_distance)
        if distance <= max_distance:
            scores[slot] = 1.0 - distance / longest
    return scores
