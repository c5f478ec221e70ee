"""The batch kernel == the per-pair reference, proven over the whole matrix.

Every reduce task scores its group through ``Matcher.match_batch``;
for :class:`~repro.er.matching.ThresholdMatcher` that is the batch
kernel of :mod:`repro.er.batch_kernel`.  It must be *unobservable*: for
every strategy, executing backend, record-source type (including
memory-mapped columnar shards), with and without a shuffle memory
budget, for one-source, two-source and incremental (delta) runs, and on
both the numpy and the pure-stdlib kernel path,

1. the matches (ids *and* scores), all per-task outputs, and every
   counter must equal a run of the same pipeline with the per-pair
   reference matcher — ``ThresholdMatcher`` with a custom similarity
   over :func:`~repro.er.similarity.levenshtein_similarity_bounded_reference`,
   which goes through the base ``match_batch`` one pair at a time;
2. the match set must equal a brute-force in-block oracle: every pair
   sharing a blocking key, scored by the reference DP kernel.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import defaultdict

import pytest

import repro.er.batch_kernel as bk
from repro.core.strategy import STRATEGIES
from repro.datasets.generators import generate_products
from repro.datasets.loaders import save_entities_csv
from repro.engine import ERPipeline
from repro.engine.incremental import CorpusState
from repro.er.blocking import PrefixBlocking
from repro.er.matching import ThresholdMatcher
from repro.er.similarity import levenshtein_similarity_bounded_reference
from repro.io import (
    ColumnarShardSource,
    CsvShardSource,
    GeneratorSource,
    InMemorySource,
    shard_bounds,
    write_columnar,
)
from repro.mapreduce.types import make_partitions

from ..test_hotpath_equivalence import _fingerprint, reference_matcher

ALL_STRATEGIES = sorted(STRATEGIES)
DUAL_STRATEGIES = [
    name for name in ALL_STRATEGIES if STRATEGIES[name]().requires_bdm
]
NUM_ENTITIES = 150
NUM_OLD = 100
NUM_SHARDS = 3
NUM_REDUCE = 5
THRESHOLD = 0.8
BLOCKING = PrefixBlocking("title")
BACKENDS = {
    "serial": {},
    "parallel": {"max_workers": 2, "executor": "thread"},
    "distributed": {"num_workers": 2},
}


@pytest.fixture(
    params=[
        pytest.param(
            "numpy",
            marks=pytest.mark.skipif(
                bk.active_numpy() is None, reason="numpy not installed"
            ),
        ),
        "stdlib",
    ]
)
def kernel(request, monkeypatch):
    """Run on both kernel paths.

    ``stdlib`` blanks the module's numpy handle in this process and sets
    ``REPRO_ER_FORCE_STDLIB`` for worker processes spawned from here.
    """
    if request.param == "stdlib":
        monkeypatch.setattr(bk, "_numpy", None)
        monkeypatch.setenv("REPRO_ER_FORCE_STDLIB", "1")
    return request.param


def _pipeline(strategy, *, reference, backend="serial", memory_budget=None):
    return ERPipeline(
        strategy,
        BLOCKING,
        reference_matcher(THRESHOLD) if reference
        else ThresholdMatcher("title", THRESHOLD),
        num_map_tasks=NUM_SHARDS,
        num_reduce_tasks=NUM_REDUCE,
        memory_budget=memory_budget,
    ).with_backend(backend, **BACKENDS.get(backend, {}))


def _run(strategy, *, reference, backend="serial", memory_budget=None,
         make_source=None, entities=None, dual=False):
    pipeline = _pipeline(strategy, reference=reference, backend=backend,
                         memory_budget=memory_budget)
    if dual:
        half = len(entities) // 2
        return pipeline.run(entities[:half], entities[half:])
    return pipeline.run(make_source() if make_source is not None else entities)


def _run_delta(strategy, entities, *, reference, backend="serial"):
    pipeline = _pipeline(strategy, reference=reference, backend=backend)
    old_partitions = make_partitions(entities[:NUM_OLD], NUM_SHARDS)
    state = CorpusState.empty().advanced(
        pipeline.run(old_partitions), old_partitions, pipeline.blocking
    )
    return pipeline.run_delta(
        make_partitions(entities[NUM_OLD:], NUM_SHARDS), state
    )


#: Reference fingerprints by configuration.  The reference matcher never
#: reaches the batch kernel, so both kernel legs share one reference run.
_REFERENCE: dict = {}


def _reference_fingerprint(config, run):
    if config not in _REFERENCE:
        _REFERENCE[config] = _fingerprint(run(reference=True))
    return _REFERENCE[config]


def _oracle(sides, *, cross=False, new_ids=frozenset()):
    """Brute-force in-block matches scored by the reference DP kernel.

    ``sides`` are ``(qualifier, entities)`` lists; ``cross`` keeps only
    pairs across the two sides, ``new_ids`` (delta) only pairs with at
    least one new entity.
    """
    blocks = defaultdict(list)
    for side, (qualifier, entities) in enumerate(sides):
        for entity in entities:
            blocks[BLOCKING.key_for(entity)].append(
                (side, f"{qualifier}:{entity.entity_id}", entity.get("title") or "")
            )
    matches = set()
    for members in blocks.values():
        for k, (side1, id1, t1) in enumerate(members):
            for side2, id2, t2 in members[k + 1:]:
                if cross and side1 == side2:
                    continue
                if new_ids and id1 not in new_ids and id2 not in new_ids:
                    continue
                if levenshtein_similarity_bounded_reference(t1, t2, THRESHOLD) >= THRESHOLD:
                    matches.add(tuple(sorted((id1, id2))))
    return matches


def _assert_equivalent(config, run, oracle):
    """``run(reference=...)`` with the kernel vs the reference matcher."""
    kernel_result = run(reference=False)
    assert _fingerprint(kernel_result) == _reference_fingerprint(config, run)
    assert kernel_result.matches.pair_ids == oracle
    assert oracle  # non-degenerate workload


@pytest.fixture(scope="module")
def entities():
    return generate_products(NUM_ENTITIES, seed=97)


@pytest.fixture(scope="module")
def one_source_oracle(entities):
    return _oracle([("R", entities)])


@pytest.fixture(scope="module")
def csv_path(entities, tmp_path_factory):
    path = tmp_path_factory.mktemp("batchmatrix") / "entities.csv"
    save_entities_csv(entities, path)
    return path


@pytest.fixture(scope="module")
def columnar_dir(entities, tmp_path_factory):
    out = tmp_path_factory.mktemp("batchmatrix") / "cols"
    return write_columnar(InMemorySource(entities, num_shards=NUM_SHARDS), out)


class TestBackendBudgetMatrix:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("backend", ["serial", "parallel", "distributed"])
    @pytest.mark.parametrize("memory_budget", [None, 64])
    def test_executing_backends(self, kernel, entities, one_source_oracle,
                                strategy, backend, memory_budget):
        _assert_equivalent(
            ("one-source", strategy, backend, memory_budget),
            lambda reference: _run(strategy, reference=reference, backend=backend,
                                   memory_budget=memory_budget, entities=entities),
            one_source_oracle,
        )

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_planned_backend_matches_execution(self, entities, strategy):
        planned = _run(strategy, reference=False, backend="planned",
                       entities=entities)
        executed = _run(strategy, reference=False, entities=entities)
        assert sorted(planned.reduce_comparisons()) == sorted(
            executed.reduce_comparisons()
        )


class TestRecordSourceMatrix:
    def _sources(self, entities, csv_path, columnar_dir):
        bounds = shard_bounds(len(entities), NUM_SHARDS)
        return {
            "in-memory": lambda: InMemorySource(entities, num_shards=NUM_SHARDS),
            "csv-shards": lambda: CsvShardSource(csv_path, num_shards=NUM_SHARDS),
            "columnar": lambda: ColumnarShardSource(columnar_dir),
            "generator": lambda: GeneratorSource(
                [(lambda lo=lo, hi=hi: iter(entities[lo:hi])) for lo, hi in bounds]
            ),
        }

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize(
        "source_kind", ["in-memory", "csv-shards", "columnar", "generator"]
    )
    @pytest.mark.parametrize("memory_budget", [None, 48])
    def test_all_sources(self, kernel, entities, one_source_oracle, csv_path,
                         columnar_dir, strategy, source_kind, memory_budget):
        make = self._sources(entities, csv_path, columnar_dir)[source_kind]
        _assert_equivalent(
            ("source", strategy, source_kind, memory_budget),
            lambda reference: _run(strategy, reference=reference,
                                   make_source=make, memory_budget=memory_budget),
            one_source_oracle,
        )

    def test_columnar_equals_csv_run(self, entities, csv_path, columnar_dir):
        """Same shard count ⇒ a columnar run is byte-identical to CSV."""
        via_columnar = _run(
            "blocksplit", reference=False,
            make_source=lambda: ColumnarShardSource(columnar_dir),
        )
        via_csv = _run(
            "blocksplit", reference=False,
            make_source=lambda: CsvShardSource(csv_path, num_shards=NUM_SHARDS),
        )
        assert _fingerprint(via_columnar) == _fingerprint(via_csv)


class TestTwoSourceAndDelta:
    @pytest.mark.parametrize("strategy", DUAL_STRATEGIES)
    @pytest.mark.parametrize("backend", ["serial", "parallel", "distributed"])
    @pytest.mark.parametrize("memory_budget", [None, 64])
    def test_two_source(self, kernel, entities, strategy, backend, memory_budget):
        half = len(entities) // 2
        _assert_equivalent(
            ("two-source", strategy, backend, memory_budget),
            lambda reference: _run(strategy, reference=reference, backend=backend,
                                   memory_budget=memory_budget,
                                   entities=entities, dual=True),
            _oracle([("R", entities[:half]), ("S", entities[half:])], cross=True),
        )

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("backend", ["serial", "parallel", "distributed"])
    def test_delta(self, kernel, entities, strategy, backend):
        new_ids = frozenset(f"R:{e.entity_id}" for e in entities[NUM_OLD:])
        _assert_equivalent(
            ("delta", strategy, backend),
            lambda reference: _run_delta(strategy, entities, reference=reference,
                                         backend=backend),
            _oracle([("R", entities)], new_ids=new_ids),
        )


class TestForcedStdlibEnv:
    """REPRO_ER_FORCE_STDLIB=1 at import time must yield the same
    matches as the in-process numpy run — checked through a real
    subprocess, the way a numpy-less deployment would see it."""

    SCRIPT = """
import repro.er.batch_kernel as bk
from repro.datasets.generators import generate_products
from repro.engine import ERPipeline
from repro.er.blocking import PrefixBlocking
from repro.er.matching import ThresholdMatcher

entities = generate_products(150, seed=97)
pipeline = ERPipeline(
    "blocksplit",
    PrefixBlocking("title"),
    ThresholdMatcher("title", 0.8),
    num_map_tasks=3,
    num_reduce_tasks=5,
)
result = pipeline.run(entities)
for pair in result.matches:
    print(pair.id1, pair.id2, pair.similarity)
print("comparisons", result.total_comparisons())
print("numpy", bk.active_numpy() is not None)
"""

    def _run(self, force_stdlib):
        env = dict(os.environ)
        env.pop("REPRO_ER_FORCE_STDLIB", None)
        env["PYTHONHASHSEED"] = "0"
        if force_stdlib:
            env["REPRO_ER_FORCE_STDLIB"] = "1"
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return proc.stdout.splitlines()

    def test_forced_stdlib_equals_default(self):
        forced = self._run(True)
        default = self._run(False)
        assert forced[-1] == "numpy False"
        assert forced[:-1] == default[:-1]
