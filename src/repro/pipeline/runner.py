"""The driver loop that executes a `Plan`.

One runner replaces the five hand-rolled ``fit`` bodies.  It owns the
cross-cutting concerns the frontends used to re-thread individually:

- **tracing/metrics** — one ``pipeline.stage`` span per stage (status
  ``run``/``restored``) around the stage's own legacy spans, carrying
  the process's peak RSS so far as the stage starts and ends
  (``peak_rss_start``/``peak_rss``, bytes: `repro trace`'s memory
  column), plus checkpoint hit/miss counters in the metrics registry;
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
from ..obs.spans import NULL_TRACER, Tracer
from .checkpoint import CheckpointStore
from .config import RunConfig
from .memo import release_tree_broadcast
from .plans import Plan
from .stages import PipelineError, Stage
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
        metrics_registry=None,
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
        """
        tracer = self.tracer
        # When run inside a caller's traced SparkContext, adopt its tracer
        # so algorithm and engine spans land in one trace.
        if not tracer.enabled and sc is not None and sc.tracer.enabled:
            tracer = sc.tracer
        state = PipelineState(
            config=self.config, tracer=tracer,
            metrics_registry=self.metrics_registry,
        )
        state.points = points
        state.sc = sc
        state.tree = tree

        wall_start = time.perf_counter()
        try:
            with tracer.span(
                "dbscan.fit",
                algorithm=algo_label or self.plan.name,
                n=int(np.asarray(points).shape[0]),
                partitions=self.config.num_partitions,
                eps=self.config.eps,
                minpts=self.config.minpts,
            ):
                self._execute(state)
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
                self._count_checkpoint(stage, hit=True)
            else:
                self._run_stage(stage, state)
                if store is not None and stage.checkpointable:
                    stage.save(state, store)
                    store.complete(stage.name)
                if stage.checkpointable and store is not None:
                    self._count_checkpoint(stage, hit=False)
            self._checkpoint_barrier(stage, state)

    def _run_stage(self, stage: Stage, state: PipelineState) -> None:
        missing = [k for k in stage.requires if not state.has(k)]
        if missing:
            raise PipelineError(
                f"stage {stage.name!r} requires {missing} but no earlier "
                f"stage provided them (plan {self.plan.name!r})"
            )
        stage_start = time.perf_counter()
        with state.tracer.span(
            "pipeline.stage", cat="pipeline", stage=stage.name, status=RUN,
            peak_rss_start=peak_rss_bytes(),
        ) as sp:
            stage.run(state)
            sp.annotate(peak_rss=peak_rss_bytes())
        if self.metrics_registry is not None:
            self.metrics_registry.histogram(
                "repro_pipeline_stage_seconds",
                "Wall-clock per executed pipeline stage.",
                ("stage",),
            ).observe(time.perf_counter() - stage_start, stage=stage.name)
        state.mark(*stage.provides)
        state.stage_status[stage.name] = RUN

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

    def _count_checkpoint(self, stage: Stage, hit: bool) -> None:
        if self.metrics_registry is None:
            return
        from ..obs.registry import record_checkpoint

        record_checkpoint(self.metrics_registry, stage.name, hit)
