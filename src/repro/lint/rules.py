"""The rule table of the static analyzer.

Every rule is a theorem about the paper's shuffle-free pipeline with a
driver-side merge (Algorithms 3-4), or has caught a real defect in
``src/`` (DESIGN.md §8.2 is the catalogue).  `RULE_TABLE` is the single
registry: one row per *checker* — a function from the whole-program
`repro.lint.callgraph.Project` to findings — with the ids it owns and
their one-line summaries.  A checker runs once per scan and reports
every id of its row; ``--rules``, the SARIF descriptors and
`rule_catalogue` read the same table.

The checkers live with their machinery: `repro.lint.lineage` (SHF001),
`repro.lint.plans` (PLN*), `repro.lint.typestate` (RES001) and
`repro.lint.sizeclass` (SCL*).  Hazards inside task code — captures,
nondeterminism, accumulator reads, broadcast mutation, nested actions,
use after stop or unpersist — are guarded by the engine at run time
(DESIGN.md §8.5), not here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .findings import Finding
from .lineage import check_shuffle_free
from .plans import check_plan_contracts
from .sizeclass import check_sizeclass
from .typestate import check_typestate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .callgraph import Project

Checker = Callable[["Project"], list[Finding]]

#: ({rule id: one-line summary}, the checker that owns those ids)
RULE_TABLE: tuple[tuple[dict[str, str], Checker], ...] = (
    ({"SHF001": "shuffle machinery reachable from the paper pipeline"},
     check_shuffle_free),
    ({"PLN001": "plan stage contract incomplete or unknown",
      "PLN002": "plan stage contract chain is circular"},
     check_plan_contracts),
    ({"RES001": "RDD persisted/cached with no unpersist() on some exit path"},
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
