"""Unit tests for physical operators and partitioners."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api.ops import (CoGroupOp, CombineByKeyOp, FilterOp, FlatMapOp,
                           GroupByKeyOp, JoinFlattenOp, MapOp,
                           MapPartitionsOp, OpCost, SortOp, run_chain)
from repro.api.partitioners import HashPartitioner, RangePartitioner
from repro.datamodel import Partition
from repro.errors import PlanError


#: Keys a hash partitioner routes: ASCII and non-ASCII strings (few,
#: so they repeat), ints, finite floats and bools.
SPLIT_KEYS = st.one_of(
    st.sampled_from(["a", "key-1", "", "\u00e9t\u00e9", "\u6570\u636e",
                     "1"]),
    st.text(max_size=6), st.integers(-2 ** 40, 2 ** 40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans())


def part(records, count=None, nbytes=None):
    return Partition.from_records(records, record_count=count,
                                  data_bytes=nbytes)


class TestNarrowOps:
    def test_map(self):
        op = MapOp(lambda x: x * 2)
        out = op.transform(part([1, 2, 3]))
        assert out.records == [2, 4, 6]
        assert out.record_count == 3

    def test_flat_map(self):
        op = FlatMapOp(lambda s: s.split())
        out = op.transform(part(["a b", "c"]))
        assert out.records == ["a", "b", "c"]

    def test_filter_scales_modeled_sizes(self):
        op = FilterOp(lambda x: x % 2 == 0)
        out = op.transform(part([0, 1, 2, 3], count=1000, nbytes=4000))
        assert out.records == [0, 2]
        assert out.record_count == pytest.approx(500)
        assert out.data_bytes == pytest.approx(2000)

    def test_map_partitions(self):
        op = MapPartitionsOp(lambda records: [sum(records)])
        out = op.transform(part([1, 2, 3]))
        assert out.records == [6]

    def test_explicit_count_ratio_overrides_sample(self):
        op = FilterOp(lambda x: x < 2, count_ratio=0.1)
        out = op.transform(part([0, 1, 2, 3], count=1000, nbytes=4000))
        assert out.record_count == pytest.approx(100)
        assert out.data_bytes == pytest.approx(400)

    def test_size_ratio_override(self):
        op = MapOp(lambda x: x, size_ratio=0.5)
        out = op.transform(part([1, 2], count=100, nbytes=1000))
        assert out.data_bytes == pytest.approx(500)
        assert out.record_count == pytest.approx(100)

    def test_output_row_bytes_override(self):
        op = MapOp(lambda x: x, output_row_bytes=lambda r: 10.0)
        out = op.transform(part([1, 2], count=100, nbytes=1000))
        assert out.data_bytes == pytest.approx(1000.0)

    def test_empty_partition_passthrough(self):
        op = MapOp(lambda x: x)
        out = op.transform(Partition(records=[], record_count=50,
                                     data_bytes=500))
        assert out.record_count == 50
        assert out.data_bytes == 500

    def test_cpu_seconds_uses_modeled_sizes(self):
        op = MapOp(lambda x: x, cost=OpCost(per_record_s=1e-6,
                                            per_byte_s=1e-9))
        seconds = op.cpu_seconds(part([1], count=1e6, nbytes=1e9))
        assert seconds == pytest.approx(1.0 + 1.0)


class TestAggregationOps:
    def test_combine_by_key(self):
        op = CombineByKeyOp(lambda a, b: a + b)
        out = op.apply([("a", 1), ("b", 2), ("a", 3)])
        assert sorted(out) == [("a", 4), ("b", 2)]

    def test_group_by_key(self):
        op = GroupByKeyOp()
        out = dict(op.apply([("a", 1), ("a", 2), ("b", 3)]))
        assert out == {"a": [1, 2], "b": [3]}

    def test_sort(self):
        op = SortOp()
        out = op.apply([(3, "c"), (1, "a"), (2, "b")])
        assert [k for k, _ in out] == [1, 2, 3]

    def test_cogroup_and_join(self):
        cogroup = CoGroupOp(2)
        tagged = [("k", (0, "l1")), ("k", (1, "r1")), ("k", (0, "l2")),
                  ("q", (0, "only-left"))]
        grouped = cogroup.apply(tagged)
        joined = JoinFlattenOp().apply(grouped)
        assert sorted(joined) == [("k", ("l1", "r1")), ("k", ("l2", "r1"))]

    def test_cogroup_needs_sides(self):
        with pytest.raises(PlanError):
            CoGroupOp(0)


class TestRunChain:
    def test_chain_applies_in_order_and_sums_cpu(self):
        chain = [
            MapOp(lambda x: x + 1, cost=OpCost(per_record_s=1.0)),
            FilterOp(lambda x: x > 2, cost=OpCost(per_record_s=1.0)),
        ]
        out, cpu = run_chain(part([1, 2, 3]), chain)
        assert out.records == [3, 4]
        # map charged on 3 records, filter on 3 records.
        assert cpu == pytest.approx(6.0)

    def test_empty_chain(self):
        src = part([1])
        out, cpu = run_chain(src, [])
        assert out.records == [1]
        assert cpu == 0.0


class TestHashPartitioner:
    def test_deterministic_across_instances(self):
        a = HashPartitioner(8)
        b = HashPartitioner(8)
        for key in ["x", "hello", 42, (1, "a"), 3.5, True]:
            assert a.partition((key, None)) == b.partition((key, None))

    def test_all_buckets_in_range(self):
        p = HashPartitioner(4)
        buckets = p.split([(i, None) for i in range(100)])
        assert len(buckets) == 4
        assert sum(len(b) for b in buckets) == 100

    def test_roughly_balanced(self):
        p = HashPartitioner(4)
        buckets = p.split([(f"key-{i}", None) for i in range(1000)])
        sizes = [len(b) for b in buckets]
        assert min(sizes) > 100

    def test_invalid_partition_count(self):
        with pytest.raises(PlanError):
            HashPartitioner(0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9), st.lists(st.one_of(
        SPLIT_KEYS, st.tuples(SPLIT_KEYS, st.integers()),
        st.tuples(st.tuples(SPLIT_KEYS, SPLIT_KEYS), st.none())),
        max_size=60))
    @example(7, [("1", 0), (1, 0), (1.0, 0), (True, 0), ("1", 1),
                 ("\u00e9t\u00e9", 0), ("\u00e9t\u00e9", 1)])
    def test_split_matches_partition(self, num_partitions, records):
        # split inlines partition's routing; it must send every record
        # where partition does, in record order.  Equal keys of other
        # types (1, 1.0, True) hash differently.
        p = HashPartitioner(num_partitions)
        assert p.split(records) == [
            [r for r in records if p.partition(r) == index]
            for index in range(num_partitions)]


class TestRangePartitioner:
    def test_routing(self):
        p = RangePartitioner([10, 20])
        assert p.num_partitions == 3
        assert p.partition((5, None)) == 0
        assert p.partition((10, None)) == 0
        assert p.partition((15, None)) == 1
        assert p.partition((25, None)) == 2

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(PlanError):
            RangePartitioner([20, 10])

    def test_from_sample_balances(self):
        keys = list(range(1000))
        p = RangePartitioner.from_sample(keys, 4)
        buckets = p.split([(k, None) for k in keys])
        sizes = [len(b) for b in buckets]
        assert max(sizes) - min(sizes) <= 10

    def test_from_sample_single_partition(self):
        p = RangePartitioner.from_sample([1, 2], 1)
        assert p.num_partitions == 1

    def test_from_empty_sample_rejected(self):
        with pytest.raises(PlanError):
            RangePartitioner.from_sample([], 4)

    def test_preserves_global_order(self):
        keys = [5, 3, 8, 1, 9, 2]
        p = RangePartitioner.from_sample(keys, 3)
        buckets = p.split([(k, None) for k in keys])
        flattened = [k for bucket in buckets for k, _ in sorted(bucket)]
        assert flattened == sorted(keys)
