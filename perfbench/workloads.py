"""The benchmark's workloads: inputs from a seed, a reference result
computed once through a different path, and the timed operation.

Every workload is a closed loop with one client: :meth:`operation` is
called again only after the previous call returned and its output was
checked.  Each call builds a fresh pipeline and matcher, uses only the
default public configuration, and checks every submission against the
reference.  A mismatch or an exception counts as a failed operation.
"""

from __future__ import annotations

import random
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from probes import cpu_seconds, peak_rss_mb
from repro.datasets.corruption import typo
from repro.datasets.generators import DatasetProfile, ProductGenerator
from repro.engine import DistributedBackend, ERPipeline, PipelineResult, ingest
from repro.er.blocking import PrefixBlocking
from repro.er.entity import Entity
from repro.er.matching import ThresholdMatcher
from repro.io import ColumnarShardSource, InMemorySource, write_columnar

#: Distinct three-letter title prefixes the product generator can draw:
#: 16 consonants x 5 vowels x 16 consonants synthetic prefixes, plus the
#: 13 brand-stem prefixes outside that pattern.  The generator never
#: returns when asked for more blocks than that, so :func:`products`
#: refuses before calling it.
MAX_PRODUCT_BLOCKS = 1293


def products(
    num_entities: int, *, num_blocks: int, zipf_exponent: float, seed: int
) -> list[Entity]:
    """DS1-shaped product listings (see ``repro.datasets.generators``)."""
    if not 1 <= num_blocks <= MAX_PRODUCT_BLOCKS:
        raise ValueError(
            f"num_blocks={num_blocks} is outside 1..{MAX_PRODUCT_BLOCKS}, "
            "the distinct title prefixes the product generator can draw"
        )
    profile = DatasetProfile(
        name="perfbench",
        num_entities=num_entities,
        num_blocks=num_blocks,
        zipf_exponent=zipf_exponent,
        seed=seed,
    )
    return ProductGenerator(profile).generate()


def _match_rows(matches) -> list[tuple[str, str, float]]:
    return [(p.id1, p.id2, p.similarity) for p in matches]


@dataclass
class Op:
    """What one closed-loop operation did and measured."""

    latencies: list[float] = field(default_factory=list)
    cpu: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    state_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def elapsed(self) -> float:
        return sum(self.latencies)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        self.errors.append(reason)


def _directory_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


class BatchWorkload:
    """One dedup job over columnar shards, checked against a serial,
    in-memory, no-spill run of the same entities."""

    name = ""
    strategy = ""
    num_map_tasks = 4
    num_reduce_tasks = 8
    #: Whether the per-layer spans come from a serial replay (the timed
    #: backend runs the kernel in other processes).
    replay_serial = False

    def __init__(self, size: str = "full"):
        self.size = size
        self.memory_budget: int | None = None

    # -- set-up ------------------------------------------------------------

    def entities(self, seed: int) -> list[Entity]:
        raise NotImplementedError

    def blocking(self) -> PrefixBlocking:
        return PrefixBlocking("title")

    def backend(self):
        return "serial"

    def setup(self, directory: Path, seed: int) -> None:
        self.directory = directory
        entities = self.entities(seed)
        self.shards = write_columnar(
            InMemorySource(entities, self.num_map_tasks), directory / "shards"
        )
        reference = ERPipeline(
            self.strategy,
            self.blocking(),
            ThresholdMatcher(),
            num_map_tasks=self.num_map_tasks,
            num_reduce_tasks=self.num_reduce_tasks,
        ).run(entities)
        self.reference_matches = _match_rows(reference.matches)
        self.reference_comparisons = reference.reduce_comparisons()
        self.configure(reference)

    def configure(self, reference: PipelineResult) -> None:
        """Settings derived from the reference run (none by default)."""

    # -- the operation -----------------------------------------------------

    def pipeline(self, backend) -> ERPipeline:
        return ERPipeline(
            self.strategy,
            self.blocking(),
            ThresholdMatcher(),
            num_map_tasks=self.num_map_tasks,
            num_reduce_tasks=self.num_reduce_tasks,
            backend=backend,
            memory_budget=self.memory_budget,
        )

    def check(self, result: PipelineResult) -> str | None:
        if _match_rows(result.matches) != self.reference_matches:
            return "matches differ from the reference"
        if result.reduce_comparisons() != self.reference_comparisons:
            return "per-reduce-task comparisons differ from the reference"
        return None

    def operation(self, recorder=None, *, serial: bool = False) -> Op:
        op = Op(attempted=1)
        pipeline = self.pipeline("serial" if serial else self.backend())
        listener = recorder.listener if recorder is not None else None
        source = ColumnarShardSource(self.shards)
        try:
            cpu_start = cpu_seconds()
            start = time.perf_counter()
            with recorder.submission() if recorder is not None else nullcontext():
                execution = pipeline.submit(source, on_event=listener)
                result = execution.result()
            op.latencies.append(time.perf_counter() - start)
            op.cpu = cpu_seconds() - cpu_start
            op.peak_rss_mb = peak_rss_mb()
        except Exception as exc:  # counted, reported, and the loop goes on
            op.fail(1, f"{type(exc).__name__}: {exc}")
            return op
        finally:
            source.close()
        stats = execution.matcher_stats()
        op.cache_hits = getattr(stats, "cache_hits", 0)
        op.cache_misses = getattr(stats, "cache_misses", 0)
        problem = self.check(result) or self._persist(result, op)
        if problem:
            op.fail(1, problem)
        return op

    def _persist(self, result: PipelineResult, op: Op) -> str | None:
        """Save the result as a user would keep it and load it back; the
        saved size is the workload's on-disk state."""
        path = self.directory / "result.json"
        result.save(path)
        op.state_bytes = path.stat().st_size
        if _match_rows(PipelineResult.load(path).matches) != self.reference_matches:
            return "the saved result does not load back equal"
        return None


class SkewedNoisy(BatchWorkload):
    name = "skewed-noisy"
    strategy = "blocksplit"
    replay_serial = True
    #: Base listings, then one copy of each with 1-3 typos.
    SIZES = {"full": 1400, "smoke": 120}
    NUM_BLOCKS = 75

    def entities(self, seed: int) -> list[Entity]:
        base = products(
            self.SIZES[self.size],
            num_blocks=self.NUM_BLOCKS,
            zipf_exponent=1.2,
            seed=seed,
        )
        rng = random.Random(seed)
        noisy = []
        for entity in base:
            # Typos after the three-letter blocking prefix keep each copy
            # in its original's block, so block sizes (and comparisons)
            # do not depend on the seed.
            title = entity.get("title")
            prefix, rest = title[:3], title[3:]
            for _ in range(rng.randint(1, 3)):
                rest = typo(rest, rng)
            title = prefix + rest
            noisy.append(Entity(f"n{entity.entity_id}",
                                {**entity.attributes, "title": title}))
        entities = base + noisy
        rng.shuffle(entities)
        return entities

    def backend(self):
        return DistributedBackend(num_workers=2)


class WideSpill(BatchWorkload):
    name = "wide-spill"
    strategy = "pairrange"
    num_reduce_tasks = 20
    #: (listings, product-generator prefix blocks)
    SIZES = {"full": (20_000, 1250), "smoke": (600, 40)}
    #: Share of Job 2's map output records the shuffle may buffer.
    BUDGET_SHARE = 0.3

    def entities(self, seed: int) -> list[Entity]:
        num_entities, num_blocks = self.SIZES[self.size]
        return products(
            num_entities, num_blocks=num_blocks, zipf_exponent=0.3, seed=seed
        )

    def blocking(self) -> PrefixBlocking:
        return PrefixBlocking("title", 12)

    def configure(self, reference: PipelineResult) -> None:
        self.memory_budget = max(1, int(self.BUDGET_SHARE * reference.map_output_kv()))


class DeltaIngest:
    """A seeded corpus state absorbing a sequence of small batches through
    ``repro.engine.incremental.ingest``, checked against a full recompute
    of the union."""

    name = "delta-ingest"
    replay_serial = False
    #: (seeded listings, ingests per operation, records per ingest)
    SIZES = {"full": (1000, 40, 30), "smoke": (150, 4, 10)}
    NUM_BLOCKS = 100

    def __init__(self, size: str = "full"):
        self.size = size

    def pipeline(self) -> ERPipeline:
        return ERPipeline(
            "blocksplit",
            PrefixBlocking("title"),
            ThresholdMatcher(),
            num_map_tasks=2,
            num_reduce_tasks=8,
        )

    def setup(self, directory: Path, seed: int) -> None:
        self.directory = directory
        num_seeded, self.num_batches, per_batch = self.SIZES[self.size]
        fresh_per_batch = per_batch // 2
        union = products(
            num_seeded + self.num_batches * fresh_per_batch,
            num_blocks=self.NUM_BLOCKS,
            zipf_exponent=1.2,
            seed=seed,
        )
        seeded, fresh = union[:num_seeded], union[num_seeded:]
        rng = random.Random(seed)
        repeats = [
            Entity(f"r{k}", dict(e.attributes))
            for k, e in enumerate(rng.sample(
                seeded, self.num_batches * (per_batch - fresh_per_batch)))
        ]
        # Dealt round-robin in blocking-key order, every batch gets the
        # same mix of large and small blocks, so per-ingest work varies
        # little with the seed.
        batches = [[] for _ in range(self.num_batches)]
        for pool in (fresh, repeats):
            ordered = sorted(pool, key=lambda e: (e.get("title")[:3], e.entity_id))
            for k, entity in enumerate(ordered):
                batches[k % self.num_batches].append(entity)
        for batch in batches:
            rng.shuffle(batch)
        records = [e for batch in batches for e in batch]
        self.batches = write_columnar(
            InMemorySource(records, self.num_batches), directory / "batches"
        )
        self.seed_state = directory / "seed-state"
        ingest(self.pipeline(), seeded, self.seed_state)
        reference = self.pipeline().run(seeded + records)
        self.reference_matches = _match_rows(reference.matches)
        # Matching is pairwise, so the matches among any subset of the
        # union are the union's matches restricted to that subset: the
        # pairs ingest b adds are those whose later member arrived in b.
        arrival = {e.qualified_id: b for b, batch in enumerate(batches)
                   for e in batch}
        self.expected = [[] for _ in batches]
        for row in self.reference_matches:
            b = max(arrival.get(row[0], -1), arrival.get(row[1], -1))
            if b >= 0:
                self.expected[b].append(row)

    def operation(self, recorder=None) -> Op:
        op = Op()
        state_dir = self.directory / "state"
        shutil.copytree(self.seed_state, state_dir)
        pipeline = self.pipeline()
        listener = recorder.listener if recorder is not None else None
        source = ColumnarShardSource(self.batches)
        try:
            for b in range(self.num_batches):
                op.attempted += 1
                cpu_start = cpu_seconds()
                start = time.perf_counter()
                try:
                    with recorder.submission() if recorder else nullcontext():
                        records = list(source.iter_shard(b))
                        result, state = ingest(
                            pipeline, records, state_dir, on_event=listener
                        )
                except Exception as exc:  # the state on disk is unchanged
                    remaining = self.num_batches - b
                    op.attempted += remaining - 1
                    op.fail(remaining, f"ingest {b}: {type(exc).__name__}: {exc}")
                    break
                op.latencies.append(time.perf_counter() - start)
                op.cpu += cpu_seconds() - cpu_start
                if _match_rows(result.matches) != self.expected[b]:
                    op.fail(1, f"ingest {b}: new matches differ from the reference")
                elif (b == self.num_batches - 1
                      and _match_rows(state.matches) != self.reference_matches):
                    op.fail(1, "cumulative matches differ from the full recompute")
            op.peak_rss_mb = peak_rss_mb()
            op.state_bytes = _directory_bytes(state_dir)
        finally:
            source.close()
            shutil.rmtree(state_dir, ignore_errors=True)
        op.cache_hits = getattr(pipeline.matcher, "cache_hits", 0)
        op.cache_misses = getattr(pipeline.matcher, "cache_misses", 0)
        return op


WORKLOADS = {w.name: w for w in (SkewedNoisy, WideSpill, DeltaIngest)}


def set_up(name: str, size: str, seed: int, work: Path, times: int):
    """Set workload ``name`` up ``times`` times from scratch, each in its
    own directory under ``work``; returns the set-up durations and the
    last set-up workload (earlier directories are removed)."""
    durations = []
    for k in range(times):
        workload = WORKLOADS[name](size)
        directory = work / f"setup-{k}"
        start = time.perf_counter()
        workload.setup(directory, seed)
        durations.append(time.perf_counter() - start)
        if k < times - 1:
            shutil.rmtree(directory)
    return durations, workload


if __name__ == "__main__":
    # Set-up in a child process (see run.py): the result is pickled under
    # this module's import name so that the parent can load it.
    import pickle
    import sys

    import workloads

    name, size, seed, work, times, out = sys.argv[1:]
    prepared = workloads.set_up(name, size, int(seed), Path(work), int(times))
    with open(out, "wb") as handle:
        pickle.dump(prepared, handle)
