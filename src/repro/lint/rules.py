"""The rule table of the task-closure linter, and the three rules that
need nothing but scopes and the call graph.

Each rule checks one invariant the engine's retry/speculation/shipping
machinery relies on (DESIGN.md §8.2 is the catalogue).  `RULE_TABLE` is
the single registry: one row per *checker* — a function from the
whole-program `repro.lint.callgraph.Project` to findings — with the ids
it owns and their one-line summaries.  A checker runs once per scan and
reports every id of its row; ``--rules``, the SARIF descriptors and
`rule_catalogue` read the same table.

Defined here: ``CAP001``/``PCK001`` (what a task closure captures) and
``DET001`` (nondeterministic calls in task-reachable code).  The other
rows live with their machinery: `repro.lint.lineage`,
`repro.lint.plans`, `repro.lint.typestate`, `repro.lint.sizeclass`.

Rules only fire on *positively identified* hazards — an unknown type
never triggers a finding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .closures import _calls_in, by_position
from .findings import Finding, Reporter
from .lineage import check_shuffle_free, check_task_dataflow
from .plans import check_plan_contracts
from .sizeclass import check_sizeclass
from .typestate import check_typestate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .callgraph import Project

# Captured types that are driver state (semantic hazard).
DRIVER_STATE_TYPES = {
    "SparkContext": "the SparkContext (driver-only: owns the backend and scheduler)",
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


def check_captures(project: "Project") -> list[Finding]:
    """CAP001/PCK001: the captures of every task function, then of every
    further task-reachable helper."""
    reporter = Reporter()
    for name, analysis in project.modules.items():
        # (function, the RDD op it was passed to | None for a helper)
        tasks: dict = {}
        for tf in analysis.task_functions + analysis.extra_task_functions:
            tasks.setdefault(tf.node, tf.via)
        reachable = project.task_reachable_by_module().get(name, ())
        helpers = by_position(f for f in reachable if f not in tasks)
        for func, via in [*tasks.items(), *((f, None) for f in helpers)]:
            where = (
                f"task function passed to .{via}()" if via is not None
                else "function reachable from task code"
            )
            for captured, node, binder in analysis.captures(func):
                tag = binder.types.get(captured)
                if tag in DRIVER_STATE_TYPES:
                    rule, what = "CAP001", DRIVER_STATE_TYPES[tag]
                elif tag in UNPICKLABLE_TYPES:
                    rule, what = "PCK001", (
                        f"{UNPICKLABLE_TYPES[tag]}; "
                        "the processes backend cannot cloudpickle it"
                    )
                else:
                    continue
                reporter.report(
                    rule, analysis.path, node.lineno, node.col_offset,
                    f"{where} captures {captured!r}, {what}",
                    symbol=analysis.scope_of(func).name,
                )
    return reporter.findings


def check_task_determinism(project: "Project") -> list[Finding]:
    """DET001: wall clocks and unseeded RNGs in task-reachable code."""
    reporter = Reporter()
    for name, reachable in project.task_reachable_by_module().items():
        analysis = project.modules[name]
        for func in by_position(reachable):
            for call in _calls_in(func):
                dotted = analysis.resolve_dotted(call.func)
                if dotted in NONDET_CALLS:
                    message = (
                        f"{dotted}() is nondeterministic per task attempt; "
                        "retries/speculation would diverge (seed an RNG from "
                        "the partition id, or move this to the driver)"
                    )
                elif (dotted in SEEDABLE_CTORS
                        and not call.args and not call.keywords):
                    message = (
                        f"{dotted}() without a seed is nondeterministic per "
                        "task attempt; derive the seed from the partition id"
                    )
                else:
                    continue
                reporter.report(
                    "DET001", analysis.path, call.lineno, call.col_offset,
                    message, symbol=analysis.scope_of(func).name,
                )
    return reporter.findings


Checker = Callable[["Project"], list[Finding]]

#: ({rule id: one-line summary}, the checker that owns those ids)
RULE_TABLE: tuple[tuple[dict[str, str], Checker], ...] = (
    ({"CAP001": "task closure captures driver-side engine state",
      "PCK001": "task closure captures an unpicklable object"},
     check_captures),
    ({"DET001": "nondeterministic call reachable from task code"},
     check_task_determinism),
    ({"SHF001": "shuffle machinery reachable from the paper pipeline"},
     check_shuffle_free),
    ({"ACC001": "accumulator value read inside task code",
      "BRD001": "broadcast value mutated inside task code",
      "ACT001": "RDD action invoked inside task code"},
     check_task_dataflow),
    ({"PLN001": "plan stage contract incomplete or unknown",
      "PLN002": "plan stage contract chain is circular"},
     check_plan_contracts),
    ({"LIF001": "SparkContext used after stop() on every path",
      "LIF003": "RDD action / Broadcast.value after unpersist() on every path",
      "RES001": "RDD persisted/cached with no unpersist() on some exit path",
      "RES002": "lock or context acquired but not released on an exception path"},
     check_typestate),
    ({"SCL001": "O(points) value materialized or retained on the driver",
      "SCL002": "driver-side loop with an O(points) trip count",
      "SCL003": "dataset-sized broadcast in a cell/edges plan",
      "SCL004": "collect of an un-digested RDD where a digest reduction exists"},
     check_sizeclass),
)


def run_rules(project: "Project") -> list[Finding]:
    """Run every checker of the table once over the project."""
    return [f for _ids, checker in RULE_TABLE for f in checker(project)]


def rule_catalogue() -> dict[str, str]:
    """{rule id: one-line summary} for docs, ``--rules`` and SARIF."""
    return dict(sorted(
        item for ids, _checker in RULE_TABLE for item in ids.items()
    ))
