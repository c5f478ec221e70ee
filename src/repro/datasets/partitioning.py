"""Input partitioning: how entities land in the m map partitions.

BlockSplit's quality depends on the input order (Figure 11): it splits
blocks *by input partition*, so a dataset sorted by the blocking key
concentrates each large block in few partitions and caps the achievable
parallelism.  This module provides both the entity-level partitioners
(for executed workflows) and the analytic size-matrix distributors (for
planner-scale benchmarks where entities are never materialised).
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from ..er.entity import Entity
from ..mapreduce.types import Partition, make_partitions

InputOrder = str  # "input" | "shuffled" | "sorted"

_ORDERS = ("input", "shuffled", "sorted")


def order_entities(
    entities: Sequence[Entity],
    order: InputOrder = "input",
    *,
    sort_key: Callable[[Entity], object] | None = None,
    seed: int = 13,
) -> list[Entity]:
    """Reorder a dataset prior to partitioning.

    ``"input"`` keeps the given order, ``"shuffled"`` applies a seeded
    shuffle, ``"sorted"`` sorts by ``sort_key`` (default: title) — the
    adversarial case for BlockSplit in Figure 11.
    """
    if order not in _ORDERS:
        raise ValueError(f"order must be one of {_ORDERS}, got {order!r}")
    result = list(entities)
    if order == "shuffled":
        random.Random(seed).shuffle(result)
    elif order == "sorted":
        key = sort_key if sort_key is not None else _default_sort_key
        result.sort(key=key)
    return result


def _default_sort_key(entity: Entity) -> str:
    return str(entity.get("title") or "")


def partition_entities(
    entities: Sequence[Entity],
    num_partitions: int,
    order: InputOrder = "input",
    *,
    sort_key: Callable[[Entity], object] | None = None,
    seed: int = 13,
) -> list[Partition]:
    """Order then split into contiguous near-equal partitions."""
    ordered = order_entities(entities, order, sort_key=sort_key, seed=seed)
    return make_partitions(ordered, num_partitions)


# ---------------------------------------------------------------------------
# Analytic distribution of block sizes over partitions (planner path)
# ---------------------------------------------------------------------------


def distribute_block_sizes(
    block_sizes: Sequence[int],
    num_partitions: int,
    order: InputOrder = "shuffled",
    *,
    seed: int = 13,
) -> list[list[int]]:
    """Produce the ``b × m`` BDM size matrix a given input order induces.

    ``"shuffled"``/``"input"`` model a dataset whose order is
    independent of the blocking key: each block's entities spread
    hypergeometrically over the contiguous partition slices (we sample
    a random global order without materialising it).  ``"sorted"``
    models a dataset sorted by blocking key: blocks occupy contiguous
    index ranges and therefore touch only 1-2 partitions each (for
    m ≪ b).
    """
    if num_partitions <= 0:
        raise ValueError(f"num_partitions must be positive, got {num_partitions}")
    if order not in _ORDERS:
        raise ValueError(f"order must be one of {_ORDERS}, got {order!r}")
    if any(n < 0 for n in block_sizes):
        raise ValueError("block sizes must be non-negative")
    total = sum(block_sizes)
    base, extra = divmod(total, num_partitions)
    partition_capacity = [
        base + (1 if p < extra else 0) for p in range(num_partitions)
    ]

    if order == "sorted":
        return _distribute_contiguous(block_sizes, partition_capacity)
    return _distribute_hypergeometric(block_sizes, partition_capacity, seed)


def _distribute_contiguous(
    block_sizes: Sequence[int], capacity: Sequence[int]
) -> list[list[int]]:
    """Blocks laid out back to back, sliced into partitions."""
    matrix = [[0] * len(capacity) for _ in block_sizes]
    partition = 0
    room = capacity[0] if capacity else 0
    for k, size in enumerate(block_sizes):
        remaining = size
        while remaining > 0:
            if room == 0:
                partition += 1
                room = capacity[partition]
            used = min(remaining, room)
            matrix[k][partition] += used
            remaining -= used
            room -= used
    return matrix


def _distribute_hypergeometric(
    block_sizes: Sequence[int], capacity: Sequence[int], seed: int
) -> list[list[int]]:
    """Sample how blocks spread under a uniformly random global order.

    Sequentially draws, for every partition slice, a multivariate
    hypergeometric sample over the remaining block populations —
    exactly the distribution induced by shuffling all entities and
    cutting contiguous slices, but in O(b·m) time and O(b) space.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    remaining = list(block_sizes)
    matrix = [[0] * len(capacity) for _ in block_sizes]
    total_remaining = sum(remaining)
    for p, slots in enumerate(capacity):
        if p == len(capacity) - 1:
            # Last slice takes everything left.
            for k, count in enumerate(remaining):
                matrix[k][p] = count
            break
        # Sequential conditional sampling of a multivariate
        # hypergeometric: block k's share of this slice is
        # H(pop_k, still-unconsidered population, still-open slots).
        to_draw = slots
        conditional_population = total_remaining
        for k in range(len(remaining)):
            if to_draw == 0:
                break
            pop = remaining[k]
            if pop == 0:
                continue
            taken = _hypergeometric_sample(
                rng, pop, conditional_population, to_draw
            )
            matrix[k][p] = taken
            remaining[k] -= taken
            conditional_population -= pop
            to_draw -= taken
        total_remaining -= slots - to_draw
    return matrix


def _hypergeometric_sample(rng, successes: int, population: int, draws: int) -> int:
    """One hypergeometric variate: #successes among ``draws`` of
    ``population`` items containing ``successes`` marked ones.

    ``rng`` is a ``numpy.random.Generator`` — exact sampling that stays
    fast for the millions-scale populations of DS2.
    """
    if draws >= population:
        return successes
    if successes == 0 or draws == 0:
        return 0
    return int(rng.hypergeometric(successes, population - successes, draws))
