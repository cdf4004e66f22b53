"""Static plan-contract checking (PLN001/PLN002) and manifest parsing.

`repro.pipeline.plans` declares its plan compositions as a pure-literal
``STAGE_MANIFEST`` (plan name → tuple of stage *class* names, the same
table ``build_plan`` instantiates) plus ``SHUFFLE_FREE_PLANS``.  This module reads both straight off the AST —
no import, no execution — joins them with the ``name``/``requires``/
``provides`` class-attribute literals of the stage classes themselves,
and verifies every plan's dataflow chain:

- ``PLN001`` plan-contract-incomplete — a manifest entry names a stage
  class no scanned module defines, a stage's requirement is provided by
  no stage at all, or two stages in one plan share a runtime stage name
  (checkpoint keys would collide);
- ``PLN002`` plan-contract-cycle — a requirement is provided only by a
  *later* stage: the chain is complete but the ordering is circular, so
  the plan can never run front to back.

A module may additionally declare a pure-literal ``SIZE_MANIFEST``
(stage class → ``{"input": class, "output": class}`` over the size
lattice of DESIGN.md §8.7).  When present it is checked for consistency
with the same module's ``STAGE_MANIFEST`` (every entry names a manifest
stage, every manifest stage is covered, classes come from the lattice)
under PLN001, and it seeds the size-class abstract interpretation
(`repro.lint.sizeclass`, the SCL rules).

The manifest also feeds `repro.lint.lineage`: the stage classes of the
shuffle-free plans are SHF001 entry points, so adding a stage to the
``spark``/``spatial`` compositions automatically puts it under the
zero-shuffle contract.

The contracts checked are the class attributes themselves: stages take
no constructor arguments, so there is no per-instance override to miss.
The runtime `Plan.__post_init__` + runner validation cover what a
literal cannot (the first stage's type, keys missing at run time).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .findings import Finding, Reporter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .callgraph import Project

STAGE_MANIFEST_NAME = "STAGE_MANIFEST"
SHUFFLE_FREE_NAME = "SHUFFLE_FREE_PLANS"
SIZE_MANIFEST_NAME = "SIZE_MANIFEST"

#: The size-class chain, smallest first (DESIGN.md §8.7).
SIZE_CLASSES = ("O(1)", "O(cells)", "O(partials)", "O(edges)", "O(points)")


@dataclass(frozen=True)
class StageContract:
    """A stage class's static dataflow contract (class-attr literals)."""

    class_name: str
    module: str
    path: str
    lineno: int
    stage_name: str                 # runtime ``name`` attr ("" if absent)
    requires: tuple[str, ...]
    provides: tuple[str, ...]


@dataclass(frozen=True)
class PlanManifest:
    """One module's ``STAGE_MANIFEST`` + ``SHUFFLE_FREE_PLANS`` literals."""

    module: str
    path: str
    # plan name -> [(stage class name, line of the literal)], in order
    plans: dict[str, list[tuple[str, int]]]
    shuffle_free: tuple[str, ...]


def _literal_assigns(body: list[ast.stmt]):
    """(name, value node) of every ``NAME = <expr>`` statement in a
    module or class body — the one reader under the three tables."""
    for stmt in body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            yield stmt.targets[0].id, stmt.value


def _string(node: ast.AST | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _string_tuple(node: ast.AST) -> tuple[str, ...] | None:
    """A Tuple/List of string constants, or None when anything else."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    out = tuple(_string(elt) for elt in node.elts)
    return None if None in out else out


def _string_items(node: ast.AST):
    """(key, key node, value node) per string-keyed entry of a Dict."""
    if isinstance(node, ast.Dict):
        for key, value in zip(node.keys, node.values):
            if _string(key) is not None:
                yield key.value, key, value


def stage_contracts(project: "Project") -> dict[str, StageContract]:
    """Class-default contracts of every top-level class declaring one.

    Only classes assigning a literal ``requires`` or ``provides`` class
    attribute participate; the first definition of a name wins (stage
    class names are unique in this repo).
    """
    out: dict[str, StageContract] = {}
    for module, analysis in project.modules.items():
        for node in analysis.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            attrs = dict(_literal_assigns(node.body))
            keys = {
                attr: _string_tuple(attrs[attr])
                for attr in ("requires", "provides") if attr in attrs
            }
            if all(v is None for v in keys.values()):
                continue
            out.setdefault(
                node.name,
                StageContract(
                    class_name=node.name,
                    module=module,
                    path=analysis.path,
                    lineno=node.lineno,
                    stage_name=_string(attrs.get("name")) or "",
                    requires=keys.get("requires") or (),
                    provides=keys.get("provides") or (),
                ),
            )
    return out


def manifests(project: "Project") -> list[PlanManifest]:
    """Every ``STAGE_MANIFEST`` literal in the scanned modules."""
    out: list[PlanManifest] = []
    for module, analysis in project.modules.items():
        names = dict(_literal_assigns(analysis.tree.body))
        plans = {
            plan: [(_string(elt), elt.lineno) for elt in value.elts
                   if _string(elt) is not None]
            for plan, _key, value in _string_items(names.get(STAGE_MANIFEST_NAME))
            if isinstance(value, (ast.Tuple, ast.List))
        }
        if plans:
            out.append(
                PlanManifest(
                    module=module,
                    path=analysis.path,
                    plans=plans,
                    shuffle_free=_string_tuple(
                        names.get(SHUFFLE_FREE_NAME)) or (),
                )
            )
    return out


@dataclass(frozen=True)
class SizeManifest:
    """One module's ``SIZE_MANIFEST`` literal: per-stage size classes."""

    module: str
    path: str
    # stage class name -> (input class, output class, line of the entry)
    stages: dict[str, tuple[str, str, int]]


def size_manifests(project: "Project") -> list[SizeManifest]:
    """Every ``SIZE_MANIFEST`` literal in the scanned modules.

    Entries are read permissively (non-string classes are kept as
    ``""``); `check_plan_contracts` reports the malformed ones.
    """
    out: list[SizeManifest] = []
    for module, analysis in project.modules.items():
        names = dict(_literal_assigns(analysis.tree.body))
        stages = {}
        for cls, key, value in _string_items(names.get(SIZE_MANIFEST_NAME)):
            classes = {role: _string(v) or ""
                       for role, _k, v in _string_items(value)}
            stages[cls] = (
                classes.get("input", ""), classes.get("output", ""), key.lineno
            )
        if stages:
            out.append(
                SizeManifest(module=module, path=analysis.path, stages=stages)
            )
    return out


def shuffle_free_stage_classes(project: "Project") -> set[str]:
    """Stage class names composing the shuffle-free plans — SHF001
    entry points derived from the manifest, not hand-maintained."""
    out: set[str] = set()
    for manifest in manifests(project):
        for plan in manifest.shuffle_free:
            out.update(cls for cls, _line in manifest.plans.get(plan, []))
    return out


def check_plan_contracts(project: "Project") -> list[Finding]:
    """PLN001/PLN002: verify every manifest plan's needs/provides chain
    statically."""
    contracts = stage_contracts(project)
    reporter = Reporter()

    def emit(rule: str, path: str, line: int, message: str, plan: str) -> None:
        reporter.report(rule, path, line, 0, message, symbol=f"plan:{plan}")

    for manifest in manifests(project):
        for plan, entries in manifest.plans.items():
            seq = [(cls, line, contracts.get(cls)) for cls, line in entries]
            seen_names: set[str] = set()
            available: set[str] = set()
            for idx, (cls, line, contract) in enumerate(seq):
                if contract is None:
                    emit(
                        "PLN001", manifest.path, line,
                        f"stage class {cls!r} is not defined in any scanned "
                        "module; the plan cannot be constructed", plan,
                    )
                    continue
                runtime_name = contract.stage_name or cls
                if runtime_name in seen_names:
                    emit(
                        "PLN001", manifest.path, line,
                        f"stage {cls!r} reuses runtime stage name "
                        f"{runtime_name!r}; checkpoint keys would collide",
                        plan,
                    )
                seen_names.add(runtime_name)
                for req in contract.requires:
                    if req in available:
                        continue
                    provided_later = any(
                        later is not None and req in later.provides
                        for _cls, _line, later in seq[idx + 1:]
                    )
                    if provided_later:
                        emit(
                            "PLN002", manifest.path, line,
                            f"stage {cls!r} requires {req!r}, which is "
                            "provided only by a later stage: the contract "
                            "chain is circular, the plan can never run "
                            "front to back", plan,
                        )
                    else:
                        emit(
                            "PLN001", manifest.path, line,
                            f"stage {cls!r} requires {req!r}, which no "
                            "stage in the plan provides: the chain is "
                            "incomplete", plan,
                        )
                available |= set(contract.provides)

    # Size-manifest consistency (gated on a module declaring one at all,
    # so plan fixtures without size contracts stay clean): every entry
    # must name a stage class of the same module's STAGE_MANIFEST, carry
    # classes from the lattice, and every manifest stage must be covered.
    stage_classes_by_module: dict[str, set[str]] = {}
    for manifest in manifests(project):
        classes = stage_classes_by_module.setdefault(manifest.module, set())
        for entries in manifest.plans.values():
            classes.update(cls for cls, _line in entries)
    for size in size_manifests(project):
        known = stage_classes_by_module.get(size.module, set())
        for cls, (inp, outp, line) in sorted(size.stages.items()):
            if known and cls not in known:
                emit(
                    "PLN001", size.path, line,
                    f"size manifest entry {cls!r} names no stage class of "
                    f"this module's {STAGE_MANIFEST_NAME}", f"size:{cls}",
                )
            for role, value in (("input", inp), ("output", outp)):
                if value not in SIZE_CLASSES:
                    emit(
                        "PLN001", size.path, line,
                        f"size manifest entry {cls!r} has {role} class "
                        f"{value!r}; expected one of {', '.join(SIZE_CLASSES)}",
                        f"size:{cls}",
                    )
        for cls in sorted(known - set(size.stages)):
            emit(
                "PLN001", size.path, 1,
                f"stage class {cls!r} appears in {STAGE_MANIFEST_NAME} but "
                f"has no {SIZE_MANIFEST_NAME} entry; declare its driver "
                "input/output size classes", f"size:{cls}",
            )
    return reporter.findings
