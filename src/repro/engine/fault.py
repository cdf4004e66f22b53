"""Fault and straggler injection.

The paper motivates Spark over MPI with fault tolerance ("one failed
process causes the whole job to fail", Section I) and models straggler
wait explicitly in its cost analysis (``t_straggling``, Section IV-C).
`FaultPlan` lets tests and benchmarks inject both: tasks that crash on
their first k attempts (then succeed via lineage recomputation) and
tasks that are artificially delayed.

Plans are plain data (picklable) so they travel to worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InjectedFault


@dataclass
class FaultPlan:
    """Deterministic fault schedule keyed by (stage, partition).

    ``fail_attempts[(stage, partition)] = k`` makes attempts 0..k-1 of
    that task raise `InjectedFault`; attempt k succeeds.  A key of
    ``(-1, partition)`` applies to any stage.

    ``delays[(stage, partition)] = seconds`` injects a sleep before the
    task body runs — a deterministic straggler.
    """

    fail_attempts: dict[tuple[int, int], int] = field(default_factory=dict)
    delays: dict[tuple[int, int], float] = field(default_factory=dict)

    def _lookup(self, table: dict[tuple[int, int], float], stage: int, partition: int):
        if (stage, partition) in table:
            return table[(stage, partition)]
        return table.get((-1, partition))

    def check(self, stage: int, partition: int, attempt: int) -> None:
        """Raise `InjectedFault` if this attempt is scheduled to fail."""
        k = self._lookup(self.fail_attempts, stage, partition)
        if k is not None and attempt < k:
            raise InjectedFault(
                f"planned fault: stage={stage} partition={partition} attempt={attempt}"
            )

    def delay_for(self, stage: int, partition: int) -> float:
        """Injected straggler delay for this task, if any."""
        return self._lookup(self.delays, stage, partition) or 0.0

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing."""
        return not self.fail_attempts and not self.delays

