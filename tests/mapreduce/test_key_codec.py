"""KeyCodec: packed ints must be indistinguishable from tuple keys.

The codec's whole contract is *order preservation* — packing bounded
int fields most-significant-first makes int comparison equal
lexicographic tuple comparison — plus exact round-tripping and loud
failure on out-of-range fields.  On top of the unit properties, the
shuffle-level tests check every job with a packed projection against a
tuple-key oracle (stable sort by the key tuple, group on the job's
documented projection), and check that spilled buckets drain as the
same entries the in-memory sort builds.
"""

from __future__ import annotations

import random

import pytest

from repro.core.basic import BasicMatchJob
from repro.core.bdm import analytic_bdm_from_block_sizes
from repro.core.blocksplit import BlockSplitJob
from repro.core.delta import DeltaBDM, DeltaBlockSplitJob, DeltaPairRangeJob
from repro.core.pairrange import PairRangeJob
from repro.core.two_source import DualBlockSplitJob, DualPairRangeJob, DualSourceBDM
from repro.er.entity import Entity
from repro.er.matching import ThresholdMatcher
from repro.mapreduce.external_shuffle import ExternalShuffle
from repro.mapreduce.job import JobConfig, TaskContext
from repro.mapreduce.shuffle import partition_map_output, shuffle, sort_entries
from repro.mapreduce.types import KeyCodec, KeyValue


class TestKeyCodecUnit:
    def test_round_trip(self):
        codec = KeyCodec(10, 300, 7)
        rng = random.Random(1)
        for _ in range(200):
            fields = (rng.randrange(10), rng.randrange(300), rng.randrange(7))
            assert codec.decode(codec.encode(fields)) == fields

    def test_order_matches_tuple_order(self):
        codec = KeyCodec(6, 40, 12, 2)
        rng = random.Random(2)
        tuples = [
            (rng.randrange(6), rng.randrange(40), rng.randrange(12), rng.randrange(2))
            for _ in range(300)
        ]
        packed = [codec.encode(t) for t in tuples]
        assert sorted(range(300), key=lambda i: packed[i]) == sorted(
            range(300), key=lambda i: tuples[i]
        )

    def test_equality_is_bijective(self):
        codec = KeyCodec(5, 5)
        seen = {codec.encode((a, b)) for a in range(5) for b in range(5)}
        assert len(seen) == 25

    def test_rejects_out_of_range(self):
        codec = KeyCodec(4, 4)
        with pytest.raises(ValueError, match="outside"):
            codec.encode((4, 0))
        with pytest.raises(ValueError, match="outside"):
            codec.encode((0, -1))

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="expected 2 fields"):
            KeyCodec(4, 4).encode((1, 2, 3))

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError, match=">= 1"):
            KeyCodec(0)
        with pytest.raises(ValueError, match="at least one"):
            KeyCodec()

    def test_decode_rejects_out_of_range(self):
        codec = KeyCodec(4, 4)
        with pytest.raises(ValueError, match="codec range"):
            codec.decode(1 << codec.total_bits)

    def test_limit_one_fields(self):
        codec = KeyCodec(1, 8, 1)
        assert codec.decode(codec.encode((0, 5, 0))) == (0, 5, 0)

    def test_field_maps_translate_and_order(self):
        """Non-int fields (the dual jobs' source tag) encode via ranks."""
        codec = KeyCodec(4, 2, field_maps={1: {"R": 0, "S": 1}})
        assert codec.encode((2, "R")) < codec.encode((2, "S"))
        assert codec.encode((2, "S")) < codec.encode((3, "R"))
        assert codec.decode(codec.encode((3, "S"))) == (3, 1)
        with pytest.raises(ValueError, match="outside"):
            codec.encode((0, "X"))

    def test_field_maps_survive_pickling(self):
        import pickle

        codec = KeyCodec(4, 2, field_maps={1: {"R": 0, "S": 1}})
        clone = pickle.loads(pickle.dumps(codec))
        assert clone.encode((3, "S")) == codec.encode((3, "S"))


def _synthetic_map_outputs(job, bdm, num_reduce_tasks, seed=9):
    """Map outputs for a job over a synthetic annotated input.

    Runs the job's own map function per partition, so the emitted keys
    are exactly what the shuffle sees in a real run.
    """
    rng = random.Random(seed)
    config = JobConfig(
        num_map_tasks=bdm.num_partitions, num_reduce_tasks=num_reduce_tasks
    )
    outputs = []
    eid = 0
    for p in range(bdm.num_partitions):
        context = TaskContext(config, partition_index=p)
        job.configure_map(context)
        task_out: list[KeyValue] = []

        def emit(key, value, _out=task_out):
            _out.append(KeyValue(key, value))

        for k in range(bdm.num_blocks):
            for _ in range(bdm.size(k, p)):
                entity = Entity(f"e{eid}", {"title": f"t{rng.randrange(20)}"})
                eid += 1
                job.map(bdm.key_of(k), entity, emit, context)
        outputs.append(task_out)
    return outputs


def _tuple_oracle(bucket, group_projection):
    """Reduce groups of one bucket, computed on the tuple keys alone.

    A stable sort by ``tuple(key)``, then consecutive records whose
    ``group_projection(tuple(key))`` is equal form one group, keyed by
    the full key of its first record — the MR contract the packed
    codec must reproduce.
    """
    ordered = sorted(bucket, key=lambda record: tuple(record.key))
    groups: list[tuple[object, object, list]] = []
    for record in ordered:
        group = group_projection(tuple(record.key))
        if groups and groups[-1][0] == group:
            groups[-1][2].append(record.value)
        else:
            groups.append((group, record.key, [record.value]))
    return [(key, tuple(values)) for _group, key, values in groups]


#: Six partitions and five reduce tasks: split blocks yield several
#: match tasks per reduce task, and unsplit blocks share reduce tasks,
#: so a group projection that drops any field merges neighbouring groups.
SIZES = [
    [7, 3, 0, 2, 4, 1],
    [1, 1, 1, 0, 0, 1],
    [12, 9, 4, 6, 8, 5],
    [0, 0, 2, 3, 1, 0],
    [5, 5, 5, 5, 5, 5],
]
NUM_REDUCE = 5


def _plain_bdm():
    return analytic_bdm_from_block_sizes(SIZES)


def _dual_bdm():
    return DualSourceBDM(_plain_bdm(), ["R", "S"] * 3)


def _delta_bdm():
    return DeltaBDM(_plain_bdm(), num_old_partitions=3)


def _full_key(key):
    return key


def _range_block(key):
    return key[:2]


def _block_i_j(key):
    return key[1:4]


#: Every job with a packed projection, with its documented grouping.
PACKED_JOBS = {
    "blocksplit": (BlockSplitJob, _plain_bdm, _full_key),
    "pairrange": (PairRangeJob, _plain_bdm, _range_block),
    "dual-blocksplit": (DualBlockSplitJob, _dual_bdm, _block_i_j),
    "dual-pairrange": (DualPairRangeJob, _dual_bdm, _range_block),
    "delta-blocksplit": (DeltaBlockSplitJob, _delta_bdm, _full_key),
    "delta-pairrange": (DeltaPairRangeJob, _delta_bdm, _range_block),
}


@pytest.mark.parametrize("name", sorted(PACKED_JOBS))
def test_packed_shuffle_groups_equal_tuple_oracle(name):
    """Sorting and grouping on packed ints equals the tuple-key contract."""
    job_cls, make_bdm, group_projection = PACKED_JOBS[name]
    bdm = make_bdm()
    job = job_cls(bdm, ThresholdMatcher(), NUM_REDUCE)
    assert job.packed_projection is not None
    outputs = _synthetic_map_outputs(job, bdm, NUM_REDUCE)
    buckets = partition_map_output(job, outputs, NUM_REDUCE)
    assert sum(map(len, buckets)) > 0
    per_task = shuffle(job, outputs, NUM_REDUCE)
    # Representative keys and value lists are the observable reduce-side
    # contract; the group keys themselves are packed ints.
    assert [
        [(group.key, group.values) for group in groups] for groups in per_task
    ] == [_tuple_oracle(bucket, group_projection) for bucket in buckets]


@pytest.mark.parametrize(
    "make_job",
    [
        lambda bdm: BlockSplitJob(bdm, ThresholdMatcher(), NUM_REDUCE),
        lambda bdm: BasicMatchJob(ThresholdMatcher()),
    ],
    ids=["packed-blocksplit", "unpacked-basic"],
)
def test_spilled_entries_equal_in_memory_entries(make_job):
    """A spilled bucket drains as exactly the entries the in-memory
    sort builds, so both paths feed the same group walk."""
    bdm = _plain_bdm()
    job = make_job(bdm)
    outputs = _synthetic_map_outputs(job, bdm, NUM_REDUCE)
    buckets = partition_map_output(job, outputs, NUM_REDUCE)
    with ExternalShuffle(job, NUM_REDUCE, memory_budget=5) as spill:
        for task_output in outputs:
            spill.add_records(task_output)
        assert spill.spill_count > 0
        for index, bucket in enumerate(buckets):
            assert spill.bucket_entries(index) == sort_entries(job, bucket)
