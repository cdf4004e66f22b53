"""The driver loop that executes a `Plan`.

One runner replaces the five hand-rolled ``fit`` bodies.  It owns the
cross-cutting concerns the frontends used to re-thread individually:

- **tracing/metrics** — one ``pipeline.stage`` span per stage (status
  ``run``/``restored``, ``checkpointed`` when written) around the
  stage's own legacy spans, carrying the process's peak RSS so far as
  the stage starts and ends (``peak_rss_start``/``peak_rss``, bytes:
  `repro trace`'s memory column).  The engine records into the fit's
  tracer (`fit_scope`), also on a lent context.  A metrics registry is
  that trace folded (`fold_trace`): when the fit ends, crash included,
  the fit's own spans go into it, the result gauges (`_results`) riding
  on its ``dbscan.fit`` span;
- **engine lifecycle** — a lent `SparkContext` is reused (and its tracer
  adopted), an owned one is stopped in ``finally``, and either way the
  fit's tree broadcast is released there (a lent context's memo may
  keep it for the next fit, `pipeline.memo`); so is a scratch directory
  the run created (`PipelineState.ensure_tmp_dir`);
- **checkpoint/resume** — checkpointable stages persist their outputs
  under ``checkpoint_dir`` keyed by `RunConfig.content_hash`; with
  ``resume=True`` a completed stage is restored from disk and every
  upstream stage whose outputs are no longer needed is skipped outright
  (a resumed merge never rebuilds the tree or starts the engine).

The skip logic is a backward pass over the plan: starting from the
plan's declared ``outputs``, a stage must execute only if it provides a
key some later executing stage (or the caller) still needs; a stage with
a valid checkpoint satisfies its keys from disk instead.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from ..engine.metrics import peak_rss_bytes
from ..obs.registry import MetricsRegistry, fold_trace
from ..obs.spans import NULL_TRACER, Span, Tracer, fit_scope
from .checkpoint import CheckpointStore
from .config import RunConfig
from .memo import release_tree_broadcast
from .plans import Plan
from .stages import CollectStage, PipelineError, Stage
from .state import PipelineState

#: Per-stage execution decisions, recorded in ``state.stage_status``.
RUN, RESTORED, SKIPPED = "run", "restored", "skipped"


class PipelineCrash(RuntimeError):
    """Injected mid-pipeline failure (the crash half of crash/resume tests)."""


class PipelineRunner:
    """Execute a `Plan` under a single `RunConfig`."""

    def __init__(
        self,
        plan: Plan,
        config: RunConfig,
        *,
        tracer: Tracer | None = None,
        metrics_registry: MetricsRegistry | None = None,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        fail_after: str | None = None,
    ):
        if fail_after is not None and fail_after not in plan.stage_names():
            raise ValueError(
                f"fail_after names unknown stage {fail_after!r}; "
                f"plan stages are {plan.stage_names()}"
            )
        self.plan = plan
        self.config = config
        self.tracer = tracer or NULL_TRACER
        self.metrics_registry = metrics_registry
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.fail_after = fail_after

    # -- public api -----------------------------------------------------------
    def run(
        self,
        points: np.ndarray,
        sc=None,
        tree=None,
        algo_label: str | None = None,
    ) -> PipelineState:
        """Execute the plan; returns the final `PipelineState`.

        ``sc`` lends an engine context (it is reused, never stopped);
        ``tree`` lends a prebuilt kd-tree to `BuildIndex`; ``algo_label``
        names the ``dbscan.fit`` span (default: the plan's row name).
        A metrics registry receives the fold of this fit's spans only.
        """
        tracer = self.tracer
        # When run inside a caller's traced SparkContext, adopt its tracer
        # so algorithm and engine spans land in one trace.
        if not tracer.enabled and sc is not None and sc.tracer.enabled:
            tracer = sc.tracer
        registry = self.metrics_registry
        if registry is not None and not tracer.enabled:
            tracer = Tracer()  # private: the registry is folded from it
        first = len(tracer.spans)
        state = PipelineState(config=self.config, tracer=tracer)
        state.points = points
        state.sc = sc
        state.tree = tree

        wall_start = time.perf_counter()
        finished = False
        try:
            with fit_scope(tracer), tracer.span(
                "dbscan.fit",
                algorithm=algo_label or self.plan.name,
                n=int(np.asarray(points).shape[0]),
                partitions=self.config.num_partitions,
                eps=self.config.eps,
                minpts=self.config.minpts,
            ) as fit:
                self._execute(state)
            finished = True
        finally:
            # A lent context outlives this fit; its tree broadcast must
            # not, unless the context's memo keeps it for the next fit.
            if state.tree_b is not None:
                release_tree_broadcast(state)
            if state.own_sc and state.sc is not None:
                state.sc.stop()
            if state.own_tmp_dir:
                shutil.rmtree(state.tmp_dir, ignore_errors=True)
            state.timings.wall = time.perf_counter() - wall_start
            if registry is not None:
                results = self._results(state, finished)
                if results:  # so the fit span was opened
                    fit.annotate(**results)
                fold_trace(registry, tracer.spans[first:])
        return state

    # -- internals ------------------------------------------------------------
    def _execute(self, state: PipelineState) -> None:
        stages = self.plan.stages
        # LoadPoints always runs first: the checkpoint key hashes the
        # *normalised* point bytes together with the semantic config.
        self._run_stage(stages[0], state)
        self._checkpoint_barrier(stages[0], state)

        store: CheckpointStore | None = None
        if self.checkpoint_dir is not None:
            store = CheckpointStore(
                self.checkpoint_dir,
                self.config.content_hash(state.points),
                self.config.semantic_dict(),
            )
        decisions = self._plan_decisions(stages[1:], store)

        for stage in stages[1:]:
            decision = decisions[stage.name]
            state.stage_status[stage.name] = decision
            if decision == SKIPPED:
                continue
            if decision == RESTORED:
                with state.tracer.span(
                    "pipeline.stage", cat="pipeline",
                    stage=stage.name, status=RESTORED,
                    peak_rss_start=peak_rss_bytes(),
                ) as sp:
                    stage.load(state, store)
                    sp.annotate(peak_rss=peak_rss_bytes())
                state.mark(*stage.provides)
            else:
                span = self._run_stage(stage, state)
                if store is not None and stage.checkpointable:
                    stage.save(state, store)
                    store.complete(stage.name)
                    span.annotate(checkpointed=True)
            self._checkpoint_barrier(stage, state)

    def _run_stage(self, stage: Stage, state: PipelineState) -> Span:
        missing = [k for k in stage.requires if not state.has(k)]
        if missing:
            raise PipelineError(
                f"stage {stage.name!r} requires {missing} but no earlier "
                f"stage provided them (plan {self.plan.name!r})"
            )
        with state.tracer.span(
            "pipeline.stage", cat="pipeline", stage=stage.name, status=RUN,
            peak_rss_start=peak_rss_bytes(),
        ) as sp:
            stage.run(state)
            sp.annotate(peak_rss=peak_rss_bytes())
        state.mark(*stage.provides)
        state.stage_status[stage.name] = RUN
        return sp

    def _plan_decisions(
        self, stages: tuple[Stage, ...], store: CheckpointStore | None
    ) -> dict[str, str]:
        """Backward pass: decide run/restore/skip per stage (see module doc)."""
        needed: set[str] = set(self.plan.outputs)
        decisions: dict[str, str] = {}
        for stage in reversed(stages):
            restorable = (
                self.resume
                and store is not None
                and stage.checkpointable
                and store.has(stage.name)
            )
            if not stage.always_run and not (set(stage.provides) & needed):
                decisions[stage.name] = SKIPPED
            elif restorable:
                decisions[stage.name] = RESTORED
                needed |= set(stage.load_requires)
            else:
                decisions[stage.name] = RUN
                needed |= set(stage.requires)
        return decisions

    def _checkpoint_barrier(self, stage: Stage, state: PipelineState) -> None:
        if self.fail_after == stage.name:
            raise PipelineCrash(
                f"injected crash after stage {stage.name!r} "
                f"(plan {self.plan.name!r})"
            )

    def _results(self, state: PipelineState, finished: bool) -> dict:
        """The result gauges, as ``dbscan.fit`` labels: the collected
        payload's canonical size once a collect stage has run (not when
        it was restored) and, for a finished fit, wall, clusters, noise
        and, where the plan has them, partial clusters."""
        out = {}
        for stage in self.plan.stages:
            if (isinstance(stage, CollectStage)
                    and state.stage_status.get(stage.name) == RUN
                    and all(map(state.has, stage.provides))):
                out["collect_bytes"] = stage.payload_nbytes(state)
        if not finished:
            return out
        labels = state.labels
        out.update(wall=state.timings.wall,
                   clusters=int(np.unique(labels[labels >= 0]).size),
                   noise_points=int(np.count_nonzero(labels == -1)))
        if state.partials is not None:
            out["partial_clusters"] = len(state.partials)
        elif "merge_plan" in state.extras:  # edges mode counts them there
            out["partial_clusters"] = state.extras["merge_plan"].num_partials
        return out
