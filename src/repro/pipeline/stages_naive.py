"""Alternate stages for the shuffle-based naive baseline.

The naive frontend exists to give the SEED design a measurable opponent
(DESIGN.md §3): iterative min-label propagation where **every round is a
shuffle**.  Its plan swaps the SEED pipeline's expand/collect/merge body
for a single `ShuffleExpand` stage plus a label-assembly tail.

Kept outside `pipeline/stages.py` on purpose: that module is under the
SHF001 shuffle-free lint contract, and this one calls ``reduce_by_key``
in nearly every line.
"""

from __future__ import annotations

import numpy as np

from ..dbscan.core import NOISE
from .checkpoint import CheckpointStore
from .stages import LabelStage, Stage
from .state import PipelineState


class ShuffleExpand(Stage):
    """Core-graph min-label propagation, one shuffle per round.

    Produces the converged core-point labelling plus the border claims
    (``state.extras``: ``naive_labels``, ``naive_border``,
    ``shuffle_rounds``, ``shuffle_bytes``) — everything the relabel tail
    needs to assemble final labels.
    """

    name = "ShuffleExpand"
    requires = ("tree", "n")
    provides = ("propagated",)
    checkpointable = True

    def run(self, state: PipelineState) -> None:
        cfg = state.config
        tracer = state.tracer
        n = state.n
        sc = state.ensure_context()
        eps, minpts = cfg.eps, cfg.minpts
        rounds = 0
        tree_b = state.tree_b = sc.broadcast(state.tree)

        # Pass 1 (no shuffle yet): core flags + adjacency edges.
        def neighbourhoods(it):
            t = tree_b.value
            for i in it:
                neigh = t.query_radius(t.points[i], eps)
                yield (i, neigh.tolist(), len(neigh) >= minpts)

        info = sc.parallelize(range(n), cfg.num_partitions).map_partitions(
            neighbourhoods
        )
        # Both cached RDDs and every broadcast but the tree's (the runner
        # releases that one) are unpersisted on every exit path (RES001):
        # the context outlives this stage, so leaked cache entries would
        # stay resident in the block manager, and leaked broadcasts in
        # the broadcast manager and the spill dir, for the whole run.
        core_b = lab_b = None
        info.cache()
        try:
            core_flags = dict(info.map(lambda rec: (rec[0], rec[2])).collect())
            core_b = sc.broadcast(core_flags)

            # Core-graph edges, both directions between core points.
            def core_edges(rec):
                i, neigh, is_core = rec
                if not is_core:
                    return []
                flags = core_b.value
                return [(j, i) for j in neigh if flags[j]]

            edges = info.flat_map(core_edges)
            edges.cache()
            try:
                # labels: every core point starts in its own cluster.
                labels = {i: i for i in range(n) if core_flags[i]}

                # Iterative min-label propagation; each round shuffles.
                for _ in range(cfg.max_rounds):
                    rounds += 1
                    with tracer.span(
                        "naive.propagation_round", round=rounds
                    ) as round_sp:
                        lab_b = sc.broadcast(labels)
                        try:
                            new_pairs = (
                                edges.map(lambda e: (e[1], lab_b.value[e[0]]))
                                .reduce_by_key(min, cfg.num_partitions)
                                .collect()
                            )
                        finally:
                            lab_b.unpersist()
                        changed = 0
                        for i, incoming in new_pairs:
                            if incoming < labels[i]:
                                labels[i] = incoming
                                changed += 1
                        round_sp.annotate(changed=changed)
                    if changed == 0:
                        break
            finally:
                edges.unpersist()

            # Border assignment: non-core point takes the min label among
            # adjacent core points (one more shuffled pass).
            lab_b = sc.broadcast(labels)

            def border_claims(rec):
                i, neigh, is_core = rec
                if is_core:
                    return []
                cores = [lab_b.value[j] for j in neigh if j in lab_b.value]
                return [(i, min(cores))] if cores else []

            border = dict(
                info.flat_map(border_claims)
                .reduce_by_key(min, cfg.num_partitions)
                .collect()
            )
        finally:
            info.unpersist()
            for b in (core_b, lab_b):
                if b is not None:
                    b.unpersist()
        rounds += 1
        shuffle_bytes = sum(
            tm.shuffle_bytes_written
            for jm in sc.dag_scheduler.job_metrics
            for st in jm.stages
            for tm in st.task_metrics
        )
        state.extras["naive_labels"] = labels
        state.extras["naive_border"] = border
        state.extras["shuffle_rounds"] = rounds
        state.extras["shuffle_bytes"] = shuffle_bytes

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        store.save_json(self.name, {
            "labels": sorted(state.extras["naive_labels"].items()),
            "border": sorted(state.extras["naive_border"].items()),
            "shuffle_rounds": state.extras["shuffle_rounds"],
            "shuffle_bytes": state.extras["shuffle_bytes"],
        })

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        doc = store.load_json(self.name)
        state.extras["naive_labels"] = {int(i): int(v) for i, v in doc["labels"]}
        state.extras["naive_border"] = {int(i): int(v) for i, v in doc["border"]}
        state.extras["shuffle_rounds"] = doc["shuffle_rounds"]
        state.extras["shuffle_bytes"] = doc["shuffle_bytes"]


class NaiveRelabel(LabelStage):
    """Assemble the final label array from core labels and border claims."""

    name = "RelabelFilter"
    requires = ("propagated", "n")
    provides = ("labels",)

    def run(self, state: PipelineState) -> None:
        labels = state.extras["naive_labels"]
        border = state.extras["naive_border"]
        out = np.full(state.n, NOISE, dtype=np.int64)
        remap: dict[int, int] = {}
        for i, lab in labels.items():
            out[i] = remap.setdefault(lab, len(remap))
        for i, lab in border.items():
            out[i] = remap[lab] if lab in remap else NOISE
        state.labels = out
