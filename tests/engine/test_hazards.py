"""The hazards of driver and task code are refused at run time, on every
backend.

`repro lint` proves the shuffle-free pipeline and its driver bound; it
does not police task code.  Each row below is a hazard whose only guard
is the engine's own check (DESIGN.md §8.5): the row's job must raise the
named exception type, with a message that names the hazard.
"""

import pytest

from repro.engine import (
    AccumulatorReadError,
    BroadcastMutationError,
    ContextStoppedError,
    JobAbortedError,
    SparkContext,
)
from repro.obs import MetricsRegistry, Tracer, fold_trace

MASTERS = ["simulated[2]", "threads[2]", "processes[2]"]


def use_after_stop(sc):
    sc.stop()
    sc.parallelize([1])


def broadcast_value_after_unpersist(sc):
    b = sc.broadcast({1: 2})
    b.unpersist()
    return b.value


def accumulator_read_in_task(sc):
    acc = sc.accumulator()

    def peek(x):
        acc.add(x)
        return acc.value

    sc.parallelize(range(4), 2).map(peek).collect()


def action_in_task(sc):
    other = sc.parallelize(range(4), 2)
    sc.parallelize(range(4), 2).map(lambda x: x + other.count()).collect()


def broadcast_mutated_in_task(sc):
    b = sc.broadcast({"shared": [1, 2, 3]})

    def mutate(x):
        b.value["shared"].append(x)
        return x

    sc.parallelize(range(4), 2).map(mutate).collect()


#: hazard -> (job, sanitize, exception type, words the message names it by)
HAZARDS = {
    "use after stop": (use_after_stop, False, ContextStoppedError, "stopped"),
    "broadcast value after unpersist": (
        broadcast_value_after_unpersist, False, RuntimeError, "unpersisted",
    ),
    "accumulator read in a task": (
        accumulator_read_in_task, False, AccumulatorReadError,
        "read inside task",
    ),
    # A nested action fails its task on every attempt; the job aborts.
    "action in a task": (
        action_in_task, False, JobAbortedError, "RDD action inside a task",
    ),
    "broadcast mutated in a task": (
        broadcast_mutated_in_task, True, BroadcastMutationError, "was mutated",
    ),
}


@pytest.mark.parametrize("master", MASTERS)
@pytest.mark.parametrize("hazard", list(HAZARDS))
def test_engine_refuses_the_hazard(hazard, master):
    job, sanitize, error, names = HAZARDS[hazard]
    with SparkContext(master, sanitize=sanitize, max_task_failures=2) as sc:
        with pytest.raises(error) as caught:
            job(sc)
    assert names in str(caught.value)


@pytest.mark.parametrize("master", MASTERS)
def test_fatal_hazard_is_reported_by_the_context_that_ran_it(master):
    """A task's fatal violation is reported to its own job's trace and
    registry, never to another (sanitized) context alive in the process."""
    mine, bystander = Tracer(), Tracer()
    with SparkContext(master, tracer=mine) as sc:
        with SparkContext("local", sanitize=True, tracer=bystander):
            with pytest.raises(AccumulatorReadError):
                accumulator_read_in_task(sc)
    mine_reg, bystander_reg = MetricsRegistry(), MetricsRegistry()
    fold_trace(mine_reg, mine.spans)
    fold_trace(bystander_reg, bystander.spans)
    violations = [s for s in mine.spans if s.name == "sanitizer.violation"]
    assert violations
    assert violations[0].labels["error_type"] == "AccumulatorReadError"
    findings = mine_reg.get("repro_sanitizer_findings_total")
    assert findings.value(kind="violation") == len(violations)
    assert not [s for s in bystander.spans if s.cat == "sanitizer"]
    assert bystander_reg.get("repro_sanitizer_findings_total") is None
