"""Property-based tests for the engine (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import SparkContext, makespan
from repro.engine.partitioner import IndexRangePartitioner

small_ints = st.lists(st.integers(-1000, 1000), max_size=60)
npart = st.integers(1, 8)


@settings(max_examples=30, deadline=None)
@given(data=small_ints, p=npart)
def test_collect_is_identity(data, p):
    with SparkContext("simulated[2]") as sc:
        assert sc.parallelize(data, p).collect() == data


@settings(max_examples=30, deadline=None)
@given(data=small_ints, p=npart)
def test_map_matches_builtin(data, p):
    with SparkContext("simulated[2]") as sc:
        got = sc.parallelize(data, p).map(lambda x: x * 2 + 1).collect()
    assert got == [x * 2 + 1 for x in data]

@settings(max_examples=30, deadline=None)
@given(data=small_ints, p=npart)
def test_filter_then_count(data, p):
    with SparkContext("simulated[2]") as sc:
        got = sc.parallelize(data, p).flat_map(lambda x: [x] if x > 0 else []).count()
    assert got == sum(1 for x in data if x > 0)


@settings(max_examples=25, deadline=None)
@given(data=st.lists(st.tuples(st.integers(0, 5), st.integers(-100, 100)), max_size=50), p=npart)
def test_reduce_by_key_matches_dict_fold(data, p):
    expected: dict[int, int] = {}
    for k, v in data:
        expected[k] = expected.get(k, 0) + v
    with SparkContext("simulated[2]") as sc:
        got = dict(sc.parallelize(data, p).reduce_by_key(lambda a, b: a + b).collect())
    assert got == expected


@settings(max_examples=25, deadline=None)
@given(data=small_ints, p=npart)
def test_distinct_matches_set(data, p):
    with SparkContext("simulated[2]") as sc:
        deduped = (
            sc.parallelize(data, p)
            .map(lambda x: (x, None))
            .reduce_by_key(lambda a, _b: a)
            .map(lambda kv: kv[0])
        )
        got = sorted(deduped.collect())
    assert got == sorted(set(data))


@settings(max_examples=25, deadline=None)
@given(
    durations=st.lists(st.floats(0.001, 100.0, allow_nan=False), min_size=1, max_size=40),
    slots=st.integers(1, 64),
)
def test_makespan_bounds(durations, slots):
    """LPT makespan is sandwiched between the trivial lower bounds and the
    serial sum; monotone in slots."""
    w = makespan(durations, slots)
    assert w >= max(durations) - 1e-12
    assert w >= sum(durations) / slots - 1e-9
    assert w <= sum(durations) + 1e-9
    assert makespan(durations, slots + 1) <= w + 1e-12


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 500), p=st.integers(1, 32))
def test_index_range_partitioner_partition_of_every_index(n, p):
    part = IndexRangePartitioner(n, p)
    total = 0
    for i in range(p):
        lo, hi = part.range_of(i)
        assert 0 <= lo <= hi <= n
        total += hi - lo
        for idx in (lo, hi - 1):
            if lo <= idx < hi:
                assert part.partition(idx) == i
    assert total == n


@settings(max_examples=20, deadline=None)
@given(
    data=st.lists(st.integers(0, 100), min_size=1, max_size=40),
    p1=st.integers(1, 6),
    p2=st.integers(1, 6),
)
def test_partition_count_does_not_change_results(data, p1, p2):
    with SparkContext("simulated[2]") as sc:
        a = sorted(sc.parallelize(data, p1).map(lambda x: x % 7).collect())
        b = sorted(sc.parallelize(data, p2).map(lambda x: x % 7).collect())
    assert a == b
