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

from .findings import Finding

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


def _string_tuple(node: ast.AST) -> tuple[str, ...] | None:
    """A Tuple/List of string constants, or None when anything else."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    out: list[str] = []
    for elt in node.elts:
        if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
            return None
        out.append(elt.value)
    return tuple(out)


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
            attrs: dict[str, tuple[str, ...]] = {}
            stage_name = ""
            for stmt in node.body:
                if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                    continue
                target = stmt.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "name":
                    if isinstance(stmt.value, ast.Constant) and isinstance(
                        stmt.value.value, str
                    ):
                        stage_name = stmt.value.value
                elif target.id in ("requires", "provides"):
                    keys = _string_tuple(stmt.value)
                    if keys is not None:
                        attrs[target.id] = keys
            if not attrs:
                continue
            out.setdefault(
                node.name,
                StageContract(
                    class_name=node.name,
                    module=module,
                    path=analysis.path,
                    lineno=node.lineno,
                    stage_name=stage_name,
                    requires=attrs.get("requires", ()),
                    provides=attrs.get("provides", ()),
                ),
            )
    return out


def manifests(project: "Project") -> list[PlanManifest]:
    """Every ``STAGE_MANIFEST`` literal in the scanned modules."""
    out: list[PlanManifest] = []
    for module, analysis in project.modules.items():
        plans: dict[str, list[tuple[str, int]]] = {}
        shuffle_free: tuple[str, ...] = ()
        for node in analysis.tree.body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if target.id == STAGE_MANIFEST_NAME and isinstance(node.value, ast.Dict):
                for key, value in zip(node.value.keys, node.value.values):
                    if not (
                        isinstance(key, ast.Constant) and isinstance(key.value, str)
                    ):
                        continue
                    if not isinstance(value, (ast.Tuple, ast.List)):
                        continue
                    entries: list[tuple[str, int]] = []
                    for elt in value.elts:
                        if isinstance(elt, ast.Constant) and isinstance(
                            elt.value, str
                        ):
                            entries.append((elt.value, elt.lineno))
                    plans[key.value] = entries
            elif target.id == SHUFFLE_FREE_NAME:
                keys = _string_tuple(node.value)
                if keys is not None:
                    shuffle_free = keys
        if plans:
            out.append(
                PlanManifest(
                    module=module,
                    path=analysis.path,
                    plans=plans,
                    shuffle_free=shuffle_free,
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

    Entries are read permissively (non-string keys or classes are kept
    as ``""``); `check_plan_contracts` reports the malformed ones.
    """
    out: list[SizeManifest] = []
    for module, analysis in project.modules.items():
        for node in analysis.tree.body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Name)
                and target.id == SIZE_MANIFEST_NAME
                and isinstance(node.value, ast.Dict)
            ):
                continue
            stages: dict[str, tuple[str, str, int]] = {}
            for key, value in zip(node.value.keys, node.value.values):
                if not (
                    isinstance(key, ast.Constant) and isinstance(key.value, str)
                ):
                    continue
                classes = {"input": "", "output": ""}
                if isinstance(value, ast.Dict):
                    for k, v in zip(value.keys, value.values):
                        if (
                            isinstance(k, ast.Constant)
                            and k.value in classes
                            and isinstance(v, ast.Constant)
                            and isinstance(v.value, str)
                        ):
                            classes[k.value] = v.value
                stages[key.value] = (
                    classes["input"], classes["output"], key.lineno
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


def check_plan_contracts(
    project: "Project", rules: tuple[str, ...] = ("PLN001", "PLN002")
) -> list[Finding]:
    """Verify every manifest plan's needs/provides chain statically."""
    contracts = stage_contracts(project)
    out: list[Finding] = []

    def emit(rule: str, path: str, line: int, message: str, plan: str) -> None:
        if rule in rules:
            out.append(
                Finding(
                    rule=rule, path=path, line=line, col=0,
                    message=message, symbol=f"plan:{plan}",
                )
            )

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
    return out
