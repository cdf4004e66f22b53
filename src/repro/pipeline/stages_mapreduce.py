"""Alternate stages for DBSCAN over the mini-MapReduce runtime.

The MapReduce plan swaps the Spark engine body for two MR jobs (the
MR-DBSCAN two-round design, see `repro.dbscan.mapreduce_job`): round 1
maps local clustering and reduces the merge, round 2 re-materialises
every (point, label) record through the shuffle.  The structural costs
the paper charges MapReduce — distributed-cache tree loads, on-disk
spills, per-job startup — all live here.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from dataclasses import asdict

import numpy as np

from ..kdtree import KDTree
from ..mapreduce import JobStats, MapReduceJob
from ..dbscan.merge import merge_partials
from ..dbscan.partial import local_dbscan
from .checkpoint import CheckpointStore
from .stages import LabelStage, Stage
from .state import PipelineState


def _graft_map_spans(state: PipelineState, stats: JobStats, job: str) -> None:
    """Record each measured map task as an executor-lane span."""
    if not state.tracer.enabled:
        return
    for m, dur in enumerate(stats.map_task_durations):
        state.tracer.add_span(
            "executor.map_task", dur, cat="executor",
            tid=f"{job}-map-{m}", partition=m, job=job,
        )


class MRBuildIndex(Stage):
    """Build the kd-tree and stage it in the distributed cache.

    Unlike the Spark plan's `BuildIndex`, the pickled tree file is part
    of the deal: every map task re-loads it from disk, which is one of
    the structural costs Figure 7 measures.
    """

    name = "BuildIndex"
    requires = ("points",)
    provides = ("tree", "model_cache")

    def run(self, state: PipelineState) -> None:
        cfg = state.config
        tmp_dir = cfg.tmp_dir or tempfile.mkdtemp(prefix="mrdbscan-")
        state.extras["tmp_dir"] = tmp_dir
        os.makedirs(tmp_dir, exist_ok=True)
        with state.tracer.span("driver.kdtree_build", cat="driver") as sp:
            t0 = time.perf_counter()
            tree = KDTree(state.points, leaf_size=cfg.leaf_size)
            cache_path = os.path.join(tmp_dir, "kdtree.cache.pkl")
            with open(cache_path, "wb") as f:
                pickle.dump(tree, f, protocol=pickle.HIGHEST_PROTOCOL)
            state.timings.kdtree_build = time.perf_counter() - t0
            sp.annotate(n=state.n, cache_bytes=os.path.getsize(cache_path))
        state.tree = tree
        state.extras["cache_path"] = cache_path


class MRLocalExpand(Stage):
    """MR round 1: map local clustering, reduce the SEED merge."""

    name = "LocalExpand"
    requires = ("model_cache", "partitioner")
    provides = ("mr_round1",)
    checkpointable = True

    def run(self, state: PipelineState) -> None:
        cfg = state.config
        n = state.n
        partitioner = state.partitioner
        cache_path = state.extras["cache_path"]
        eps, minpts, seed_policy = cfg.eps, cfg.minpts, cfg.seed_policy

        def map_local_cluster(map_id, index_range):
            # Distributed cache read: every task pays the deserialisation.
            with open(cache_path, "rb") as fh:
                local_tree = pickle.load(fh)
            partials = local_dbscan(
                map_id, range(*index_range), local_tree.points, local_tree,
                eps, minpts, partitioner, seed_policy=seed_policy,
            )
            yield (0, partials)

        merged_info: dict[str, int] = {}

        def reduce_merge(_key, partial_lists):
            partials = [c for chunk in partial_lists for c in chunk]
            outcome = merge_partials(partials, n)
            merged_info["num_partials"] = len(partials)
            merged_info["num_merges"] = outcome.num_merges
            for i, lab in enumerate(outcome.labels):
                yield (int(i), int(lab))

        job1 = MapReduceJob(
            mapper=map_local_cluster,
            reducer=reduce_merge,
            num_reducers=1,
            tmp_dir=os.path.join(state.extras["tmp_dir"], "job1"),
            startup_overhead=cfg.startup_overhead,
        )
        splits = [
            [(m, partitioner.range_of(m))] for m in range(cfg.num_partitions)
        ]
        with state.tracer.span(
            "mr.job1", round=1, startup_overhead=cfg.startup_overhead
        ):
            labelled = [kv for out in job1.run(splits) for kv in out]
        _graft_map_spans(state, job1.stats, "mr1")
        state.extras["labelled"] = labelled
        state.extras["job1_stats"] = job1.stats
        state.extras["mr_merge_info"] = merged_info

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        store.save_json(self.name, {
            "labelled": state.extras["labelled"],
            "job1_stats": asdict(state.extras["job1_stats"]),
            "merge_info": state.extras["mr_merge_info"],
        })

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        doc = store.load_json(self.name)
        state.extras["labelled"] = [
            (int(k), int(v)) for k, v in doc["labelled"]
        ]
        state.extras["job1_stats"] = JobStats(**doc["job1_stats"])
        state.extras["mr_merge_info"] = {
            k: int(v) for k, v in doc["merge_info"].items()
        }


class MRCollect(Stage):
    """MR round 2: re-materialise all (point, label) records (relabel job)."""

    name = "CollectPartials"
    requires = ("mr_round1",)
    provides = ("mr_round2",)
    checkpointable = True

    def run(self, state: PipelineState) -> None:
        cfg = state.config
        num_maps = cfg.num_partitions

        def map_identity(idx, label):
            yield (idx % num_maps, (idx, label))

        def reduce_collect(_key, values):
            yield from values

        # A resume can restore round 1 and skip MRBuildIndex entirely, so
        # the staging directory may need resolving afresh here.
        tmp_dir = (
            state.extras.get("tmp_dir") or cfg.tmp_dir
            or tempfile.mkdtemp(prefix="mrdbscan-")
        )
        job2 = MapReduceJob(
            mapper=map_identity,
            reducer=reduce_collect,
            num_reducers=num_maps,
            tmp_dir=os.path.join(tmp_dir, "job2"),
            startup_overhead=cfg.startup_overhead,
        )
        with state.tracer.span(
            "mr.job2", round=2, startup_overhead=cfg.startup_overhead
        ):
            out2 = job2.run_on_records(state.extras["labelled"], num_maps)
        _graft_map_spans(state, job2.stats, "mr2")
        state.extras["out2"] = out2
        state.extras["job2_stats"] = job2.stats

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        store.save_json(self.name, {
            "out2": [[int(k), int(v)] for k, v in state.extras["out2"]],
            "job2_stats": asdict(state.extras["job2_stats"]),
        })

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        doc = store.load_json(self.name)
        state.extras["out2"] = [(int(k), int(v)) for k, v in doc["out2"]]
        state.extras["job2_stats"] = JobStats(**doc["job2_stats"])


class MRRelabel(LabelStage):
    """Assemble the final label array from round 2's output records."""

    name = "RelabelFilter"
    requires = ("mr_round2", "n")
    provides = ("labels",)

    def run(self, state: PipelineState) -> None:
        labels = np.full(state.n, -1, dtype=np.int64)
        for idx, lab in state.extras["out2"]:
            labels[idx] = lab
        state.labels = labels
