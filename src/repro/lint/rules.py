"""The rule catalogue of the task-closure linter.

Each rule checks one invariant the engine's retry/speculation/shipping
machinery relies on (DESIGN.md §8).  Rules come in two kinds:

*Module rules* run over one `ModuleAnalysis` — after the project layer
has injected cross-module task functions and widened the task-reachable
set, so they fire through helper modules too:

- ``CAP001`` capture-driver-state — functions passed to RDD operations
  (and everything they transitively call) must not capture driver-side
  engine objects (`SparkContext`, `RDD`, block/shuffle managers).
  Tasks are retried, speculated, and (on the processes
  backend) cloudpickled; captured driver state either fails to
  serialize or silently diverges per executor.
- ``PCK001`` capture-unpicklable — task closures must not capture
  locks, open file handles, threads, or sockets: the processes backend
  cloudpickles closures, and these types do not survive the trip.
- ``DET001`` nondeterminism — no wall-clock (`time.time`) or unseeded
  RNG (`random.random`, `np.random.*`, zero-arg `random.Random()` /
  `default_rng()`) reachable from task code.  A retried or speculative
  attempt must produce byte-identical output, or label-equivalence
  tests are meaningless.  Driver-only uses are not flagged; intentional
  exceptions carry a ``# lint: allow[DET001]`` pragma.

*Project rules* run once over the whole `repro.lint.callgraph.Project`:

- ``SHF001`` shuffle-free (`repro.lint.lineage`) — proven from the
  interprocedural call graph: no wide-dependency RDD API or shuffle
  import reachable from the paper-pipeline entry points.
- ``ACC001``/``BRD001``/``ACT001`` task-dataflow (`repro.lint.lineage`)
  — accumulator reads, broadcast mutations, and RDD actions inside
  task-reachable code.
- ``PLN001``/``PLN002`` plan contracts (`repro.lint.plans`) — every
  manifest plan's Stage needs/provides chain is complete and acyclic.
- ``LIF001``/``LIF003`` lifecycle ordering and
  ``RES001``/``RES002`` resource leaks (`repro.lint.typestate`) —
  flow-sensitive typestate over per-function CFGs: use-after-stop
  (SparkContext), action-after-unpersist (RDD/Broadcast), persist
  with no unpersist on an exit path, and lock/context held across an
  escaping exception path.
- ``SCL001``–``SCL004`` size classes (`repro.lint.sizeclass`) — an
  abstract interpretation over the O(1) ⊑ O(cells) ⊑ O(partials) ⊑
  O(edges) ⊑ O(points) lattice, seeded from the ``SIZE_MANIFEST``:
  O(points) materialized/retained on the driver outside the sanctioned
  stages (SCL001), a driver loop with O(points) trip count (SCL002), a
  dataset-sized broadcast in a cell/edges plan (SCL003), and a collect
  of an un-digested RDD when a digest reduction exists (SCL004).

Rules only fire on *positively identified* hazards — an unknown type
never triggers a finding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .closures import ModuleAnalysis, TaskFunction, _calls_in
from .findings import Finding
from .lineage import (
    check_accumulator_reads,
    check_broadcast_mutations,
    check_rdd_actions,
    check_shuffle_free,
)
from .plans import check_plan_contracts
from .sizeclass import check_sizeclass
from .typestate import check_typestate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .callgraph import Project

# Captured types that are driver state (semantic hazard).
DRIVER_STATE_TYPES = {
    "SparkContext": "the SparkContext (driver-only: owns the backend and scheduler)",
    "StreamingContext": "the StreamingContext (driver-only)",
    "RDD": "an RDD (lineage handles live on the driver; ship data, not plans)",
    "BlockManager": "a BlockManager (executor-local storage, never shipped)",
    "ShuffleManager": "the ShuffleManager (driver-side shuffle bookkeeping)",
}

# Captured types cloudpickle cannot ship to worker processes.
UNPICKLABLE_TYPES = {
    "Lock": "a lock/condition/semaphore (unpicklable; invisible to other processes)",
    "File": "an open file handle (unpicklable; fd is process-local)",
    "Thread": "a thread object (unpicklable)",
    "Socket": "a socket (unpicklable; fd is process-local)",
}

# Fully-resolved call targets that are nondeterministic per attempt.
NONDET_CALLS = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbits",
    "random.random",
    "random.randint",
    "random.randrange",
    "random.choice",
    "random.choices",
    "random.shuffle",
    "random.sample",
    "random.uniform",
    "random.gauss",
    "random.getrandbits",
    "numpy.random.rand",
    "numpy.random.randn",
    "numpy.random.randint",
    "numpy.random.random",
    "numpy.random.random_sample",
    "numpy.random.choice",
    "numpy.random.shuffle",
    "numpy.random.permutation",
    "numpy.random.normal",
    "numpy.random.uniform",
    "numpy.random.seed",
}

# Callables that are fine *seeded* but nondeterministic with no argument.
SEEDABLE_CTORS = {"random.Random", "numpy.random.default_rng"}


RuleFn = Callable[[ModuleAnalysis], list[Finding]]
ProjectRuleFn = Callable[["Project"], list[Finding]]
RULES: dict[str, tuple[str, RuleFn]] = {}
PROJECT_RULES: dict[str, tuple[str, ProjectRuleFn]] = {}


def rule(rule_id: str, summary: str) -> Callable[[RuleFn], RuleFn]:
    """Register a per-module rule implementation under its id."""

    def deco(fn: RuleFn) -> RuleFn:
        RULES[rule_id] = (summary, fn)
        return fn

    return deco


def project_rule(rule_id: str, summary: str, fn: ProjectRuleFn) -> None:
    """Register a whole-program rule implementation under its id."""
    PROJECT_RULES[rule_id] = (summary, fn)


def _task_scopes(analysis: ModuleAnalysis):
    """(task fn node, scope, via-op) without duplicates — local task
    functions plus cross-module ones injected by the project layer."""
    seen: set[int] = set()
    for tf in analysis.task_functions + analysis.extra_task_functions:
        if id(tf.node) in seen:
            continue
        seen.add(id(tf.node))
        yield tf


def _capture_findings(
    analysis: ModuleAnalysis,
    rule_id: str,
    hazards: dict[str, str],
    render: Callable[[TaskFunction | None, str, str], str],
) -> list[Finding]:
    """Capture-rule core shared by CAP001/PCK001: check the captures of
    every task function, then of every further task-reachable helper."""
    out: list[Finding] = []
    direct: set[int] = set()
    for tf in _task_scopes(analysis):
        direct.add(id(tf.node))
        for name, node, binder in analysis.captures(tf.node):
            tag = binder.types.get(name)
            if tag in hazards:
                out.append(
                    Finding(
                        rule=rule_id,
                        path=analysis.path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=render(tf, name, tag),
                        symbol=tf.scope.name,
                    )
                )
    for func_node in analysis.task_reachable:
        if id(func_node) in direct:
            continue
        scope = analysis.scope_of(func_node)
        for name, node, binder in analysis.captures(func_node):
            tag = binder.types.get(name)
            if tag in hazards:
                out.append(
                    Finding(
                        rule=rule_id,
                        path=analysis.path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=render(None, name, tag),
                        symbol=scope.name,
                    )
                )
    return out


@rule("CAP001", "task closure captures driver-side engine state")
def check_driver_state_capture(analysis: ModuleAnalysis) -> list[Finding]:
    def render(tf: TaskFunction | None, name: str, tag: str) -> str:
        where = (
            f"task function passed to .{tf.via}()" if tf is not None
            else "function reachable from task code"
        )
        return f"{where} captures {name!r}, {DRIVER_STATE_TYPES[tag]}"

    return _capture_findings(analysis, "CAP001", DRIVER_STATE_TYPES, render)


@rule("PCK001", "task closure captures an unpicklable object")
def check_unpicklable_capture(analysis: ModuleAnalysis) -> list[Finding]:
    def render(tf: TaskFunction | None, name: str, tag: str) -> str:
        where = (
            f"task function passed to .{tf.via}()" if tf is not None
            else "function reachable from task code"
        )
        return (
            f"{where} captures {name!r}, {UNPICKLABLE_TYPES[tag]}; "
            "the processes backend cannot cloudpickle it"
        )

    return _capture_findings(analysis, "PCK001", UNPICKLABLE_TYPES, render)


@rule("DET001", "nondeterministic call reachable from task code")
def check_task_determinism(analysis: ModuleAnalysis) -> list[Finding]:
    out: list[Finding] = []
    reported: set[tuple[int, int]] = set()
    for func_node in analysis.task_reachable:
        scope = analysis.scope_of(func_node)
        for call in _calls_in(func_node):
            dotted = analysis.resolve_dotted(call.func)
            if dotted is None:
                continue
            key = (call.lineno, call.col_offset)
            if key in reported:
                continue
            if dotted in NONDET_CALLS:
                reported.add(key)
                out.append(
                    Finding(
                        rule="DET001",
                        path=analysis.path,
                        line=call.lineno,
                        col=call.col_offset,
                        message=(
                            f"{dotted}() is nondeterministic per task attempt; "
                            "retries/speculation would diverge (seed an RNG from "
                            "the partition id, or move this to the driver)"
                        ),
                        symbol=scope.name,
                    )
                )
            elif dotted in SEEDABLE_CTORS and not call.args and not call.keywords:
                reported.add(key)
                out.append(
                    Finding(
                        rule="DET001",
                        path=analysis.path,
                        line=call.lineno,
                        col=call.col_offset,
                        message=(
                            f"{dotted}() without a seed is nondeterministic per "
                            "task attempt; derive the seed from the partition id"
                        ),
                        symbol=scope.name,
                    )
                )
    return out


project_rule(
    "SHF001",
    "shuffle machinery reachable from the paper pipeline",
    check_shuffle_free,
)
project_rule(
    "ACC001",
    "accumulator value read inside task code",
    check_accumulator_reads,
)
project_rule(
    "BRD001",
    "broadcast value mutated inside task code",
    check_broadcast_mutations,
)
project_rule(
    "ACT001",
    "RDD action invoked inside task code",
    check_rdd_actions,
)
project_rule(
    "PLN001",
    "plan stage contract incomplete or unknown",
    lambda project: check_plan_contracts(project, rules=("PLN001",)),
)
project_rule(
    "PLN002",
    "plan stage contract chain is circular",
    lambda project: check_plan_contracts(project, rules=("PLN002",)),
)
project_rule(
    "LIF001",
    "SparkContext used after stop() on every path",
    lambda project: check_typestate(project, rules=("LIF001",)),
)
project_rule(
    "LIF003",
    "RDD action / Broadcast.value after unpersist() on every path",
    lambda project: check_typestate(project, rules=("LIF003",)),
)
project_rule(
    "RES001",
    "RDD persisted/cached with no unpersist() on some exit path",
    lambda project: check_typestate(project, rules=("RES001",)),
)
project_rule(
    "RES002",
    "lock or context acquired but not released on an exception path",
    lambda project: check_typestate(project, rules=("RES002",)),
)
project_rule(
    "SCL001",
    "O(points) value materialized or retained on the driver",
    lambda project: check_sizeclass(project, rules=("SCL001",)),
)
project_rule(
    "SCL002",
    "driver-side loop with an O(points) trip count",
    lambda project: check_sizeclass(project, rules=("SCL002",)),
)
project_rule(
    "SCL003",
    "dataset-sized broadcast in a cell/edges plan",
    lambda project: check_sizeclass(project, rules=("SCL003",)),
)
project_rule(
    "SCL004",
    "collect of an un-digested RDD where a digest reduction exists",
    lambda project: check_sizeclass(project, rules=("SCL004",)),
)


def run_rules(analysis: ModuleAnalysis) -> list[Finding]:
    """Run every registered per-module rule over one module analysis."""
    out: list[Finding] = []
    for _summary, fn in RULES.values():
        out.extend(fn(analysis))
    return out


def run_project_rules(project: "Project") -> list[Finding]:
    """Run every registered whole-program rule once over the project."""
    out: list[Finding] = []
    for _summary, fn in PROJECT_RULES.values():
        out.extend(fn(project))
    return out


def rule_catalogue() -> dict[str, str]:
    """{rule id: one-line summary} for docs and ``--rules``."""
    out = {rid: summary for rid, (summary, _fn) in RULES.items()}
    out.update({rid: summary for rid, (summary, _fn) in PROJECT_RULES.items()})
    return dict(sorted(out.items()))
