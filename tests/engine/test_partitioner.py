"""Partitioner invariants, especially the paper's index-range partitioning."""

import pytest

from repro.engine import HashPartitioner, IndexRangePartitioner


class TestHashPartitioner:
    def test_in_range(self):
        p = HashPartitioner(5)
        assert all(0 <= p.partition(k) < 5 for k in range(1000))

    def test_deterministic(self):
        p = HashPartitioner(7)
        assert [p.partition(k) for k in range(50)] == [
            p.partition(k) for k in range(50)
        ]

    def test_string_keys(self):
        p = HashPartitioner(3)
        assert 0 <= p.partition("hello") < 3

    def test_equality(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)


class TestIndexRangePartitioner:
    def test_ranges_cover_exactly(self):
        p = IndexRangePartitioner(100, 7)
        covered = []
        for i in range(7):
            lo, hi = p.range_of(i)
            covered.extend(range(lo, hi))
        assert covered == list(range(100))

    def test_ranges_balanced(self):
        p = IndexRangePartitioner(10, 3)
        sizes = [hi - lo for lo, hi in (p.range_of(i) for i in range(3))]
        assert sizes == [4, 3, 3]  # first partitions absorb the remainder

    def test_partition_inverse_of_range(self):
        p = IndexRangePartitioner(57, 5)
        for idx in range(57):
            owner = p.partition(idx)
            lo, hi = p.range_of(owner)
            assert lo <= idx < hi

    def test_owns(self):
        p = IndexRangePartitioner(10, 2)
        assert p.owns(0, 4)
        assert not p.owns(0, 5)
        assert p.owns(1, 5)

    def test_paper_example_ranges(self):
        # Figure 4: 5000 points, 2 partitions -> [0,2500) and [2500,5000).
        p = IndexRangePartitioner(5000, 2)
        assert p.range_of(0) == (0, 2500)
        assert p.range_of(1) == (2500, 5000)
        assert p.partition(2499) == 0
        assert p.partition(3000) == 1  # the paper's SEED example point

    def test_matches_parallelize_slicing(self):
        """Index ranges must agree with ParallelCollectionRDD's slicing —
        the DBSCAN job depends on this alignment."""
        from repro.engine import SparkContext

        with SparkContext("local[1]") as sc:
            for n, p in [(10, 3), (100, 7), (13, 5), (5, 5), (8, 3)]:
                part = IndexRangePartitioner(n, p)
                chunks = (
                    sc.parallelize(range(n), p)
                    .map_partitions(lambda it: [list(it)])
                    .collect()
                )
                for i, chunk in enumerate(chunks):
                    lo, hi = part.range_of(i)
                    assert chunk == list(range(lo, hi))

    def test_out_of_range_key_raises(self):
        p = IndexRangePartitioner(10, 2)
        with pytest.raises(IndexError):
            p.partition(10)
        with pytest.raises(IndexError):
            p.partition(-1)

    def test_more_partitions_than_points(self):
        p = IndexRangePartitioner(3, 5)
        sizes = [hi - lo for lo, hi in (p.range_of(i) for i in range(5))]
        assert sizes == [1, 1, 1, 0, 0]
