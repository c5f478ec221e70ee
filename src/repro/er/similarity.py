"""String and numeric similarity measures.

The paper compares entities "by computing the edit distance of their
title" with a match threshold of 0.8.  We implement Levenshtein with
the standard normalisation ``1 - d / max(|a|, |b|)`` plus the usual ER
toolbox (Jaro, Jaro-Winkler, Jaccard over token or n-gram sets, numeric
closeness) so the library is usable beyond the single paper workload.

Edit distance is the per-pair hot path of the whole system, so
:func:`levenshtein_distance` dispatches to Myers' bit-parallel kernel
(shorter string ≤ 64 chars — the common ER case) or a banded DP, with
Ukkonen-style ``max_distance`` early exits throughout; the classic
two-row DP survives as :func:`levenshtein_distance_reference`, the
oracle the property tests check against.  :func:`similarity_at_least` is the boolean threshold fast
path (length filter before any DP).

All functions return similarities in ``[0, 1]`` where 1 means equal.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

SimilarityFunction = Callable[[str, str], float]


def levenshtein_distance_reference(
    a: str, b: str, *, max_distance: int | None = None
) -> int:
    """Classic dynamic-programming edit distance with two rows.

    This is the O(n·m) reference implementation the bit-parallel and
    banded kernels are verified against.  ``max_distance`` enables early
    exit: once every cell of a row exceeds the bound the true distance
    cannot come back under it, and ``max_distance + 1`` is returned.
    """
    if a == b:
        return 0
    # Ensure b is the shorter string to minimise the row size.
    if len(b) > len(a):
        a, b = b, a
    if not b:
        if max_distance is not None and len(a) > max_distance:
            return max_distance + 1
        return len(a)
    if max_distance is not None and len(a) - len(b) > max_distance:
        return max_distance + 1

    previous = list(range(len(b) + 1))
    current = [0] * (len(b) + 1)
    for i, ca in enumerate(a, start=1):
        current[0] = i
        best = current[0]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current[j] = min(
                previous[j] + 1,      # deletion
                current[j - 1] + 1,   # insertion
                previous[j - 1] + cost,  # substitution
            )
            if current[j] < best:
                best = current[j]
        if max_distance is not None and best > max_distance:
            return max_distance + 1
        previous, current = current, previous
    return previous[len(b)]


MyersMasks = tuple[dict[str, int], int, int, int]


def myers_masks(pattern: str) -> MyersMasks:
    """Pre-packed bitmasks for running Myers' kernel against ``pattern``.

    Returns ``(peq, mask, last, m)`` — the per-character equality masks,
    the ``m``-bit column mask, the top-bit probe, and ``len(pattern)``.
    Building these is O(|pattern|) dict work and dominates the kernel on
    short strings, so batched scoring packs them once per *distinct*
    string and reuses them across every pair sharing that pattern
    (:mod:`repro.er.batch_kernel`).  ``pattern`` must be non-empty and
    at most 64 characters: the DP column must fit one machine word.
    """
    m = len(pattern)
    peq: dict[str, int] = {}
    bit = 1
    for ch in pattern:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    return peq, (1 << m) - 1, 1 << (m - 1), m


def myers_distance_masks(masks: MyersMasks, text: str, max_distance: int | None) -> int:
    """Myers' bit-parallel edit distance — O(|text|) word operations.

    Runs against masks prepacked by :func:`myers_masks`, so a batch of
    pairs sharing one pattern pays the ``peq`` construction once.  The
    whole DP column lives in the bits of two machine words (VP/VN, the
    positive/negative vertical deltas).  The running ``score`` is the
    value of the column's last cell; the final distance can drop by at
    most one per remaining text character, which gives the Ukkonen
    early exit ``score - remaining > max_distance``.  Returns the exact
    distance, or ``max_distance + 1`` once the bound is provably
    exceeded.
    """
    peq, mask, last, m = masks
    if max_distance is None:
        # The distance never exceeds the longer length, so this bound
        # never trips the early exit.
        max_distance = max(m, len(text))
    vp = mask
    vn = 0
    score = m
    get = peq.get
    remaining = len(text)
    for ch in text:
        eq = get(ch, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        if hp & last:
            score += 1
        elif hn & last:
            score -= 1
        remaining -= 1
        if score - remaining > max_distance:
            return max_distance + 1
        hp = ((hp << 1) | 1) & mask
        hn = (hn << 1) & mask
        vp = (hn | ~(xv | hp)) & mask
        vn = hp & xv
    return score


#: Sentinel code point for padded text-matrix cells in the batched
#: kernel.  Real code points stop at 0x10FFFF, so this value can never
#: collide with a pattern character and its equality mask is always 0.
_BATCH_PAD = 0x1FFFFF

#: Bits reserved for the code point in the combined ``lane | char``
#: lookup keys of the batched kernel (0x10FFFF < 2**21).
_BATCH_CHAR_BITS = 21


def myers_mask_table(pattern: str) -> tuple[list[int], list[int]]:
    """:func:`myers_masks`'s ``peq`` as parallel sorted arrays.

    Returns ``(code_points, masks)`` with ``code_points`` strictly
    ascending — the layout :func:`myers_distance_batch` needs to resolve
    per-character equality masks with one vectorized binary search
    instead of a per-character dict probe.  Same contract as
    :func:`myers_masks`: ``pattern`` non-empty, at most 64 characters.
    """
    peq: dict[int, int] = {}
    bit = 1
    for ch in pattern:
        code = ord(ch)
        peq[code] = peq.get(code, 0) | bit
        bit <<= 1
    codes = sorted(peq)
    return codes, [peq[code] for code in codes]


def myers_distance_batch(np, patterns, texts, max_distances):
    """Myers' recurrence over many (pattern, text) lanes at once.

    ``patterns[k]``/``texts[k]``/``max_distances[k]`` describe lane
    ``k``; every pattern must be non-empty and at most 64 characters
    (the :func:`myers_masks` contract), and every bound must be
    ``>= 0``.  Returns an ``int64`` array where lane ``k`` holds exactly
    what ``myers_distance_masks(myers_masks(patterns[k]), texts[k],
    max_distances[k])`` returns — the exact distance, or
    ``max_distances[k] + 1`` once the bound is provably exceeded.

    The whole batch advances one text position per step: each lane's
    DP column lives in one ``uint64`` element of the VP/VN arrays, so a
    step is a fixed number of vectorized word operations regardless of
    lane count.  Wrapping ``uint64`` addition is safe here for the same
    reason Myers' C formulation is: the recurrence only ever reads bits
    below each lane's own column mask, and a carry out of bit 63 can
    never influence those.  Mixed pattern lengths share one batch —
    the column mask, top-bit probe and initial score are per-lane
    arrays.  Per-lane bookkeeping handles the ragged shapes:

    * *equality masks* come from one combined table keyed by
      ``(lane << 21) | code_point`` (patterns deduplicated via
      :func:`myers_mask_table`), resolved for the whole padded text
      matrix with a single ``searchsorted``; padding cells use a
      sentinel above 0x10FFFF so their mask is 0,
    * a lane stops consuming once its text is exhausted (its score is
      frozen by the update mask) and dies early when the Ukkonen bound
      ``score - remaining > max_distance`` trips, vector-wide via the
      per-lane alive mask; the loop ends at the last live lane.

    ``max_distances[k] >= len(texts[k])`` disables lane ``k``'s early
    exit entirely (the distance can never exceed the longer side), so
    passing the text length is the "unbounded" configuration.
    """
    lanes = len(patterns)
    if lanes == 0:
        return np.empty(0, dtype=np.int64)
    # Lanes usually repeat a much smaller set of distinct strings (the
    # same block members pair up against each other), so every O(chars)
    # cost — mask tables, code-point decoding — is paid per *distinct*
    # pattern/text and broadcast to lanes by integer indexing.
    pattern_of: dict[str, int] = {}
    lane_pat = [
        pattern_of.setdefault(p, len(pattern_of)) for p in patterns
    ]
    text_of: dict[str, int] = {}
    lane_text = [text_of.setdefault(t, len(text_of)) for t in texts]
    lane_pat_arr = np.fromiter(lane_pat, dtype=np.int64, count=lanes)
    lane_text_arr = np.fromiter(lane_text, dtype=np.int64, count=lanes)
    pat_lengths = np.fromiter(
        (len(p) for p in pattern_of), dtype=np.int64, count=len(pattern_of)
    )
    text_lengths = np.fromiter(
        (len(t) for t in text_of), dtype=np.int64, count=len(text_of)
    )
    m = pat_lengths[lane_pat_arr]
    lengths = text_lengths[lane_text_arr]
    budgets = np.fromiter(max_distances, dtype=np.int64, count=lanes)

    # Combined equality-mask table keyed ``(pattern_id << 21) | code``,
    # sorted by construction (pattern ids ascending in insertion order,
    # code points ascending within a pattern).
    key_parts: list[int] = []
    mask_parts: list[int] = []
    for pid, pattern in enumerate(pattern_of):
        codes, masks = myers_mask_table(pattern)
        base = pid << _BATCH_CHAR_BITS
        key_parts.extend(base | code for code in codes)
        mask_parts.extend(masks)
    table_keys = np.fromiter(key_parts, dtype=np.int64, count=len(key_parts))
    table_masks = np.fromiter(mask_parts, dtype=np.uint64, count=len(mask_parts))

    # Padded code-point matrix over the *distinct* texts, then one
    # gather + searchsorted pass resolves the whole lanes × lmax
    # equality-mask matrix.
    lmax = int(lengths.max())
    if lmax == 0:
        return m.copy()  # every text empty: distance == pattern length
    tmat = np.full((len(text_of), lmax), _BATCH_PAD, dtype=np.int64)
    all_codes = np.frombuffer(
        "".join(text_of).encode("utf-32-le"), dtype="<u4"
    ).astype(np.int64)
    offset = 0
    for tid, n in enumerate(text_lengths.tolist()):
        tmat[tid, :n] = all_codes[offset:offset + n]
        offset += n
    keys = (lane_pat_arr << _BATCH_CHAR_BITS)[:, None] | tmat[lane_text_arr]
    idx = np.minimum(np.searchsorted(table_keys, keys), len(table_keys) - 1)
    eq = np.where(table_keys[idx] == keys, table_masks[idx], np.uint64(0))

    # The recurrence: per-lane VP/VN words, one update per text position.
    mask = np.uint64(0xFFFFFFFFFFFFFFFF) >> (np.uint64(64) - m.astype(np.uint64))
    last_shift = (m - 1).astype(np.uint64)
    one = np.uint64(1)
    vp = mask.copy()
    vn = np.zeros(lanes, dtype=np.uint64)
    score = m.copy()
    alive = np.ones(lanes, dtype=bool)
    for t in range(lmax):
        consuming = alive & (lengths > t)
        if not consuming.any():
            break
        eqc = eq[:, t]
        xv = eqc | vn
        xh = (((eqc & vp) + vp) ^ vp) | eqc
        hp = vn | ~(xh | vp)
        hn = vp & xh
        delta = ((hp >> last_shift) & one).astype(np.int64) - (
            (hn >> last_shift) & one
        ).astype(np.int64)
        score = np.where(consuming, score + delta, score)
        # Ukkonen early exit, vector-wide: the final distance can drop
        # by at most one per remaining character.
        dead = consuming & (score - (lengths - (t + 1)) > budgets)
        if dead.any():
            score[dead] = budgets[dead] + 1
            alive &= ~dead
        hp = ((hp << one) | one) & mask
        hn = (hn << one) & mask
        vp = (hn | ~(xv | hp)) & mask
        vn = hp & xv
    return score


def _banded_distance(a: str, b: str, bound: int) -> int:
    """Edit distance restricted to a diagonal band of half-width ``bound``.

    Exact whenever the true distance is ≤ ``bound`` (cells outside the
    band cannot lie on such an alignment); returns ``bound + 1``
    otherwise.  ``b`` must be the shorter string and
    ``len(a) - len(b) <= bound``.  O(|a|·bound) instead of O(|a|·|b|).
    """
    n, m = len(a), len(b)
    big = bound + 1
    # Row 0 of the DP table, clipped to the band: D[0][j] = j.
    prev_lo = 0
    prev = list(range(min(m, bound) + 1))
    for i in range(1, n + 1):
        lo = i - bound
        if lo < 0:
            lo = 0
        hi = i + bound
        if hi > m:
            hi = m
        ca = a[i - 1]
        current = []
        best = big
        for j in range(lo, hi + 1):
            if j == 0:
                val = i if i <= bound else big
            else:
                k = j - 1 - prev_lo
                sub = prev[k] if 0 <= k < len(prev) else big
                if ca != b[j - 1]:
                    sub += 1
                dele = prev[k + 1] + 1 if 0 <= k + 1 < len(prev) else big
                ins = current[-1] + 1 if current else big
                val = sub if sub < dele else dele
                if ins < val:
                    val = ins
                if val > big:
                    val = big
            current.append(val)
            if val < best:
                best = val
        if best > bound:
            return big
        prev, prev_lo = current, lo
    return prev[m - prev_lo] if prev[m - prev_lo] <= bound else big


def levenshtein_distance(a: str, b: str, *, max_distance: int | None = None) -> int:
    """Levenshtein edit distance via the fastest applicable kernel.

    Strings whose shorter side fits in a 64-bit word use Myers' bit-
    parallel kernel (O(n·m/64) word operations); longer inputs fall back
    to a banded DP — directly banded at ``max_distance`` when a bound is
    given, with Ukkonen's doubling bands (exact, O(n·d)) otherwise.
    Semantics are identical to :func:`levenshtein_distance_reference`:
    the exact distance, or ``max_distance + 1`` as soon as the bound is
    provably exceeded.
    """
    if a == b:
        return 0
    if len(b) > len(a):
        a, b = b, a
    la, lb = len(a), len(b)
    if max_distance is not None:
        if max_distance < 0:
            return max_distance + 1
        if la - lb > max_distance:
            return max_distance + 1  # length filter: no DP needed
    if not b:
        return la
    if lb <= 64:
        return myers_distance_masks(myers_masks(b), a, max_distance)
    if max_distance is not None:
        return _banded_distance(a, b, max_distance)
    # Unbounded and both sides > 64 chars: Ukkonen's doubling bands.
    # The distance is at most ``la``, so a band of half-width ``la``
    # degenerates to the full DP and the loop always terminates.
    bound = max(1, la - lb)
    while True:
        distance = _banded_distance(a, b, bound)
        if distance <= bound:
            return distance
        bound *= 2
        if bound >= la:
            return _banded_distance(a, b, la)


def levenshtein_similarity(a: str, b: str) -> float:
    """``1 - d(a, b) / max(|a|, |b|)`` — the paper's match measure."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein_distance(a, b) / longest


def levenshtein_similarity_bounded(a: str, b: str, threshold: float) -> float:
    """Similarity with early exit below ``threshold``.

    Returns the exact similarity when it is ≥ ``threshold`` and ``0.0``
    otherwise — sufficient for threshold matching and much faster on
    dissimilar strings.
    """
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    max_distance = int((1.0 - threshold) * longest)
    distance = levenshtein_distance(a, b, max_distance=max_distance)
    if distance > max_distance:
        return 0.0
    return 1.0 - distance / longest


def levenshtein_similarity_bounded_reference(
    a: str, b: str, threshold: float
) -> float:
    """:func:`levenshtein_similarity_bounded` over the reference DP kernel.

    Exists so the equivalence tests can run the exact pre-optimisation
    scoring side by side with the bit-parallel kernels.
    """
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    max_distance = int((1.0 - threshold) * longest)
    distance = levenshtein_distance_reference(a, b, max_distance=max_distance)
    if distance > max_distance:
        return 0.0
    return 1.0 - distance / longest


def similarity_at_least(a: str, b: str, threshold: float) -> bool:
    """Does ``levenshtein_similarity(a, b) >= threshold`` hold?

    The threshold is converted into a maximum edit distance
    ``⌊(1 − t)·max(|a|, |b|)⌋`` up front, so hopeless pairs fail the
    length filter (``abs(|a| − |b|)`` alone exceeds the budget) before
    any DP work runs, and the bounded kernel abandons the rest as soon
    as the budget is provably blown.  This is the boolean fast path for
    threshold matchers that do not need the exact score.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    if a == b:
        return True
    longest = max(len(a), len(b))
    max_distance = int((1.0 - threshold) * longest)
    if abs(len(a) - len(b)) > max_distance:
        return False
    return levenshtein_distance(a, b, max_distance=max_distance) <= max_distance


def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity — transposition-aware matching for short strings."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(len(a), len(b)) // 2 - 1
    window = max(window, 0)
    a_flags = [False] * len(a)
    b_flags = [False] * len(b)
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(len(b), i + window + 1)
        for j in range(lo, hi):
            if not b_flags[j] and b[j] == ca:
                a_flags[i] = b_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, flagged in enumerate(a_flags):
        if flagged:
            while not b_flags[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    m = float(matches)
    return (m / len(a) + m / len(b) + (m - transpositions) / m) / 3.0


def jaro_winkler_similarity(a: str, b: str, *, prefix_weight: float = 0.1) -> float:
    """Jaro-Winkler: Jaro boosted by the common prefix (max 4 chars)."""
    if not 0.0 <= prefix_weight <= 0.25:
        raise ValueError(f"prefix_weight must be in [0, 0.25], got {prefix_weight}")
    jaro = jaro_similarity(a, b)
    prefix = 0
    for ca, cb in zip(a[:4], b[:4]):
        if ca != cb:
            break
        prefix += 1
    return jaro + prefix * prefix_weight * (1.0 - jaro)


def jaccard_similarity(a: Iterable, b: Iterable) -> float:
    """Jaccard coefficient over two element collections."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    union = len(sa | sb)
    return len(sa & sb) / union


def token_jaccard(a: str, b: str) -> float:
    """Jaccard over whitespace tokens."""
    return jaccard_similarity(a.split(), b.split())


def ngrams(text: str, n: int = 3, *, pad: bool = True) -> list[str]:
    """Character n-grams, optionally padded like standard trigram indexing."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if pad:
        padding = "#" * (n - 1)
        text = f"{padding}{text}{padding}"
    if len(text) < n:
        return [text] if text else []
    return [text[i:i + n] for i in range(len(text) - n + 1)]


def ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    """Jaccard over character n-gram sets."""
    return jaccard_similarity(ngrams(a, n), ngrams(b, n))


def numeric_similarity(a: float, b: float, *, scale: float = 1.0) -> float:
    """``max(0, 1 - |a - b| / scale)`` for numeric attributes (e.g. price)."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return max(0.0, 1.0 - abs(a - b) / scale)


def weighted_average(scores: Sequence[float], weights: Sequence[float]) -> float:
    """Combine several attribute similarities into one match score."""
    if len(scores) != len(weights):
        raise ValueError("scores and weights must have equal length")
    if not scores:
        raise ValueError("at least one score is required")
    total_weight = sum(weights)
    if total_weight <= 0:
        raise ValueError("weights must sum to a positive value")
    return sum(s * w for s, w in zip(scores, weights)) / total_weight
