"""The collected record, held once on the driver.

`ClusterTable.concat` writes each task's columns straight into their
founder-sorted place; it is held here to the stack-then-gather it
replaced (`stacked_concat`).  The partials gauge renders the record
a block at a time and the digest gauge one projection at a time; both
are held to whole-record renderings (`whole_partials_nbytes`,
`whole_digest_nbytes`), since `merge.collect_bytes` is compared
exactly.  And the accumulator
hands the tasks' tables over once, so a lent context does not keep an
earlier fit's tables alive.
"""

import gc
import pickle
import weakref
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import generate_clustered
from repro.dbscan import ClusterTable, SparkDBSCAN
from repro.dbscan.partial import (
    CLUSTER_COLUMNS,
    MEMBER_COLUMNS,
    NO_OPS,
    NO_ORPHANS,
    PAYLOAD_BLOCK,
    TABLE_ARRAYS,
    _ptr,
    digest_payload_nbytes,
    partials_payload_nbytes,
    stack,
)
from repro.engine import SparkContext
from repro.engine.accumulator import AccumulatorRegistry
from tests.dbscan.test_witness_once import chained_points, expansions


def stacked_concat(tables):
    """`ClusterTable.concat` as it was: every column stacked into one
    table, then `ClusterTable.take` — a gather index the size of the
    record per ragged column — in stable founder order."""
    tables = list(tables) or [ClusterTable.from_partials([])]
    first = tables[0]
    if len(tables) == 1 and (np.diff(first.founder) > 0).all():
        return first
    stacked = ClusterTable(
        task=first.task if len(tables) == 1 else -1,
        **{f: stack(tables, f) for f in CLUSTER_COLUMNS + MEMBER_COLUMNS
           + ("seeds", "orphans", "ops")},
        member_ptr=_ptr(np.concatenate(
            [np.diff(t.member_ptr) for t in tables])),
        seed_ptr=_ptr(np.concatenate([np.diff(t.seed_ptr) for t in tables])),
        boundary=(None if any(t.boundary is None for t in tables)
                  else stack(tables, "boundary")),
    )
    return stacked.take(np.argsort(stacked.founder, kind="stable"))


def columns(table):
    """Every array field (None for an absent ``boundary``) and ``task``."""
    out = {f: getattr(table, f) for f in TABLE_ARRAYS}
    return {f: None if a is None else (a.dtype, a.tolist())
            for f, a in out.items()} | {"task": table.task}


def int_column(draw, size, lo, hi):
    return np.array(draw(st.lists(st.integers(lo, hi), min_size=size,
                                  max_size=size)), dtype=np.int64)


@st.composite
def task_table(draw, task, boundary):
    """One task's table: up to six clusters of up to four members and
    seeds; founders may repeat across tables (the stable tie-break), or
    ascend strictly (the single-table fast path)."""
    m = draw(st.integers(0, 6))
    if draw(st.booleans()):
        founder = np.cumsum(int_column(draw, m, 1, 5)) - 1
    else:
        founder = int_column(draw, m, -1, 12)
    members = int_column(draw, m, 1, 4)
    seeds = int_column(draw, m, 0, 4)
    n_members, n_seeds = int(members.sum()), int(seeds.sum())
    orphans = int_column(draw, 2 * draw(st.integers(0, 3)), 0, 99)
    return ClusterTable(
        task=task,
        **{f: int_column(draw, m, 0, 9) for f in CLUSTER_COLUMNS
           if f not in ("founder", "member_count")},
        founder=founder, member_count=members,
        member_ptr=_ptr(members), members=int_column(draw, n_members, 0, 99),
        border=np.array(draw(st.lists(st.booleans(), min_size=n_members,
                                      max_size=n_members)), dtype=bool),
        boundary=(np.array(draw(st.lists(
            st.booleans(), min_size=n_members, max_size=n_members)),
            dtype=bool) if boundary else None),
        seed_ptr=_ptr(seeds), seeds=int_column(draw, n_seeds, 0, 99),
        orphans=orphans.reshape(-1, 2) if len(orphans) else NO_ORPHANS,
        ops=(int_column(draw, 8, 0, 9).reshape(1, 8) if draw(st.booleans())
             else NO_OPS),
    )


@st.composite
def task_tables(draw):
    """Zero to four tables, each with or without its boundary flags."""
    return [draw(task_table(task, draw(st.booleans())))
            for task in range(draw(st.integers(0, 4)))]


@settings(max_examples=300, deadline=None)
@given(tables=task_tables())
def test_concat_matches_stack_then_take(tables):
    """Same columns, dtypes and ``task`` as the stacked gather — empty
    lists and tables, the already-sorted single table (returned as is),
    boundary flags on every table, some or none, orphan and ``ops``
    rows — and the argument's tables are left as they were."""
    before = [columns(t) for t in tables]
    got = ClusterTable.concat(tables)
    assert columns(got) == columns(stacked_concat(tables))
    assert [columns(t) for t in tables] == before
    if len(tables) == 1 and (np.diff(tables[0].founder) > 0).all():
        assert got is tables[0]


def test_concat_of_a_run_matches_stack_then_take():
    """On real tasks' tables, with boundary flags and orphan rows."""
    pts = chained_points(3, 4, 60, 30)
    for frame in ("range", "cells"):
        tables = expansions(frame, pts, 2.0, 5, 4, True)
        assert sum(len(t.orphans) for t in tables)
        assert columns(ClusterTable.concat(tables)) == columns(
            stacked_concat(tables))


# ---------------------------------------------------------------------------
# payload gauges against whole-record renderings
# ---------------------------------------------------------------------------

def whole_partials_nbytes(partials, orphans=NO_ORPHANS):
    """`partials_payload_nbytes` over one ``tolist()`` of the record."""
    members, border = partials.members.tolist(), partials.border.tolist()
    seeds = partials.seeds.tolist()
    mp, sp = partials.member_ptr.tolist(), partials.seed_ptr.tolist()
    rows = zip(partials.partition.tolist(), partials.local_id.tolist(),
               partials.lo.tolist(), partials.hi.tolist(),
               partials.down_seeds.tolist())
    return sum(
        len(pickle.dumps(
            (p, lid, lo, hi, members[mp[k]:mp[k + 1]],
             seeds[sp[k]:sp[k + 1]],
             sorted(compress(members[mp[k]:mp[k + 1]],
                             border[mp[k]:mp[k + 1]])),
             "unfinished", down),
            protocol=4,
        ))
        for k, (p, lid, lo, hi, down) in enumerate(rows)
    ) + (len(pickle.dumps(orphans.tolist(), protocol=4)) if len(orphans) else 0)


def whole_digest_nbytes(digests):
    """`digest_payload_nbytes` as one pickle of each projection's
    rendering."""
    total = 0
    for t in digests:
        seeds, sp = t.seeds.tolist(), t.seed_ptr.tolist()
        summaries = list(zip(
            t.partition.tolist(), t.local_id.tolist(), t.founder.tolist(),
            t.member_count.tolist(), (t.sizes - t.member_count).tolist(),
            t.border_count.tolist()))
        exports = list(zip(
            t.members.tolist(),
            np.repeat(t.local_id, np.diff(t.member_ptr)).tolist(),
            (~t.border).tolist()))
        total += len(pickle.dumps(
            (t.task, summaries,
             [seeds[sp[k]:sp[k + 1]] for k in range(len(t))],
             exports, t.orphans.tolist()),
            protocol=4,
        ))
    return total


def random_table(seed, clusters):
    """A record with ids of every pickled int width (1, 2 and 4 bytes,
    and past 2**31), a cluster with 2 500 seeds and members, and orphan
    rows."""
    rng = np.random.default_rng(seed)
    top = [200, 60_000, 10**6, 2**33][seed % 4]
    members = rng.integers(1, 40, clusters)
    seeds = rng.integers(0, 40, clusters)
    members[clusters // 2] = seeds[clusters // 3] = 2_500
    n_members, n_seeds = int(members.sum()), int(seeds.sum())
    return ClusterTable(
        task=int(rng.integers(0, 300)),
        partition=rng.integers(0, 300, clusters),
        local_id=np.arange(clusters), lo=rng.integers(0, top, clusters),
        hi=rng.integers(0, top, clusters),
        founder=rng.integers(-1, top, clusters), member_count=members,
        border_count=rng.integers(0, 300, clusters),
        down_seeds=rng.integers(0, 70_000, clusters),
        member_ptr=_ptr(members), members=rng.integers(0, top, n_members),
        border=rng.random(n_members) < 0.3,
        seed_ptr=_ptr(seeds), seeds=rng.integers(0, top, n_seeds),
        orphans=rng.integers(0, top, (int(rng.integers(1, 3_000)), 2)),
    )


@pytest.mark.parametrize("seed", range(4))
def test_payload_gauges_match_whole_record_renderings(seed):
    """More clusters than one block, every int width, long lists and
    orphan rows: the same byte counts."""
    table = random_table(seed, 3 * PAYLOAD_BLOCK + 7)
    assert partials_payload_nbytes(table, table.orphans) == (
        whole_partials_nbytes(table, table.orphans))
    assert partials_payload_nbytes(table) == whole_partials_nbytes(table)
    assert digest_payload_nbytes([table]) == whole_digest_nbytes([table])


@settings(max_examples=100, deadline=None)
@given(tables=task_tables())
def test_payload_gauges_match_on_small_tables(tables):
    """Empty tables, one-item lists and orphan-free tables included."""
    for t in tables:
        assert partials_payload_nbytes(t, t.orphans) == whole_partials_nbytes(
            t, t.orphans)
    assert digest_payload_nbytes(tables) == whole_digest_nbytes(tables)


def test_payload_gauges_match_on_a_run():
    """The record and projections of real tasks, with orphan rows."""
    pts = chained_points(5, 4, 60, 30)
    tables = expansions("range", pts, 2.0, 5, 4, True)
    record = ClusterTable.concat(tables)
    assert len(record.orphans)
    assert partials_payload_nbytes(record, record.orphans) == (
        whole_partials_nbytes(record, record.orphans))
    projections = [t.project() for t in tables]
    assert digest_payload_nbytes(projections) == whole_digest_nbytes(
        projections)


# ---------------------------------------------------------------------------
# the accumulator hands its value over once
# ---------------------------------------------------------------------------

def test_a_lent_context_keeps_no_task_table_of_an_earlier_fit(monkeypatch):
    """Two fits on one lent context, the sweep's shape: once the second
    has run, no table a task of the first shipped is still alive — the
    registry drained it, and the collected record is a concatenation."""
    shipped = []
    apply = AccumulatorRegistry.apply_task_updates

    def record(self, job_id, stage_id, partition, updates):
        shipped.extend(weakref.ref(t) for term in updates.values()
                       for t in term if isinstance(t, ClusterTable))
        return apply(self, job_id, stage_id, partition, updates)

    monkeypatch.setattr(AccumulatorRegistry, "apply_task_updates", record)
    pts = generate_clustered(n=1_200, d=2, seed=3).points
    with SparkContext("simulated[2]") as sc:
        first = SparkDBSCAN(eps=2.0, minpts=5, num_partitions=4).fit(pts, sc=sc)
        tables = list(shipped)
        second = SparkDBSCAN(eps=2.5, minpts=5, num_partitions=4).fit(
            pts, sc=sc)
        gc.collect()
        assert len(tables) == 4
        assert [r() for r in tables] == [None] * 4
        assert [sc.accumulators.current_value(a) for a in (0, 1)] == [[], []]
    assert first.labels.shape == second.labels.shape == (len(pts),)
