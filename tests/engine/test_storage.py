"""Block manager: caching, eviction, lineage recomputation."""

from repro.engine.storage import BlockManager


class TestBlockManager:
    def test_memory_roundtrip(self):
        bm = BlockManager()
        bm.put(1, 0, [1, 2, 3])
        assert bm.get(1, 0) == [1, 2, 3]
        assert bm.num_memory_blocks == 1

    def test_miss_returns_none(self):
        bm = BlockManager()
        assert bm.get(9, 9) is None
        assert bm.misses == 1

    def test_evict_partition(self):
        bm = BlockManager()
        bm.put(1, 0, [1])
        bm.put(1, 1, [2])
        assert bm.evict(1, 0) == 1
        assert bm.get(1, 0) is None
        assert bm.get(1, 1) == [2]

    def test_evict_whole_rdd(self):
        bm = BlockManager()
        bm.put(1, 0, [1])
        bm.put(1, 1, [2])
        bm.put(2, 0, [3])
        assert bm.evict(1) == 2
        assert bm.get(2, 0) == [3]

    def test_hit_counters(self):
        bm = BlockManager()
        bm.put(1, 0, [1])
        bm.get(1, 0)
        bm.get(1, 0)
        assert bm.hits == 2

    def test_clear_removes_everything(self):
        bm = BlockManager()
        bm.put(1, 0, [1])
        bm.put(2, 0, [2])
        bm.clear()
        assert bm.get(1, 0) is None
        assert bm.get(2, 0) is None


class TestLineageRecovery:
    def test_evicted_cache_block_recomputes(self, sc):
        """Losing a cached block must be transparent: lineage recomputes it
        (the paper's Spark-vs-replication fault story)."""
        acc = sc.accumulator()
        r = sc.parallelize(range(6), 2).map(lambda x: acc.add(1) or x * 2).cache()
        assert r.collect() == [x * 2 for x in range(6)]
        assert acc.value == 6
        # Simulate executor cache loss.
        sc.block_manager.evict(r.rdd_id)
        assert r.collect() == [x * 2 for x in range(6)]
        assert acc.value == 12  # recomputed from the parent
