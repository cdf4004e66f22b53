"""Size-class abstract interpretation: prove the driver stays sub-O(points).

The paper's Fig. 6 cliff is the driver merge, and the edge-based merge
path exists precisely so the driver only ever holds O(edges + partials)
state.  This module turns that convention into a static proof over the
lattice of asymptotic size classes

    O(1) ⊑ O(cells) ⊑ O(partials) ⊑ O(edges) ⊑ O(points) ⊑ ⊤

Every driver-side value is abstracted as a `SizeVal` with two class
components — ``storage`` (the bytes the value itself pins) and
``count`` (its element/trip-count magnitude: ``len(partials)`` is an
O(1) scalar whose *count* is O(partials)) — plus provenance (taint
line), a freshness bit (allocated here vs. aliased), symbolic parameter
dependencies for interprocedural summaries, and a lazy-handle tag for
RDD/broadcast objects whose driver cost is not their logical size.

Transfer functions cover numpy constructors and element-preserving
ops, slicing/fancy indexing, concatenation, comprehensions (whose
generators the CFG lowers to real loop blocks, so SCL002 sees their
trip counts), and the engine APIs: ``sc.parallelize(x)`` wraps ``x``
lazily, ``rdd.collect()`` materializes the RDD's class on the driver,
``sc.broadcast(x)`` inherits ``x``'s class.
Sources are the repo's naming contract (``points``/``labels`` are
O(points); ``digests`` are O(partials)-many O(edges) records; …) plus
the pure-literal ``SIZE_MANIFEST`` next to ``STAGE_MANIFEST`` in
`repro.pipeline.plans`, which declares every stage's driver-resident
input/output classes.  A callee's summary is its return value's class,
symbolic in its parameters; the flow engine (`repro.lint.dataflow`)
memoizes and cycle-guards it.

The analysis is *may* in the repo's house style: a value with no
positively identified class never fires.  Four rules:

- ``SCL001`` driver-materializes-points — an O(points)-classed value
  is materialized (fresh allocation) or retained (stored into longer-
  lived ``obj.attr``/``obj[k]`` storage) on the driver outside the
  sanctioned stages (load/reorder/index build/label application);
- ``SCL002`` driver-loop-over-points — a driver-side loop (``for``,
  or a comprehension generator) whose trip count is O(points): the
  exact per-point driver iteration `merge_edges` was built to kill;
- ``SCL003`` broadcast-of-points — a dataset-sized broadcast reachable
  from a ``cell``/``*_edges`` plan, the static twin of the runtime
  broadcast-bytes assertion;
- ``SCL004`` collect-undigested — ``collect()`` of an O(points) RDD
  while the size manifest offers an O(edges)/O(partials) digest
  reduction: collect the digest, not the dataset.

Scope mirrors the lineage rules: functions reachable from the
shuffle-free plans' stage classes, minus task-submitted closures
(executor code is *supposed* to touch points) and the engine
substrate.  Findings carry related "tainted here" locations and the
usual line-free messages; the known central binning/balancing in
`repro.dbscan.cells` is exempted with scoped pragmas referencing
ROADMAP item 3, not silently skipped.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace

from .callgraph import is_substrate
from .cfg import ExceptBind, ForBind, WithEnter
from .closures import (
    RDD_CHAIN_METHODS,
    RDD_FACTORY_METHODS,
    _target_names,
    dotted_name,
)
from .dataflow import Callee, FunctionPass, calls_within, parameters
from .findings import Finding, Reporter
from .plans import (
    SIZE_CLASSES,
    manifests,
    shuffle_free_stage_classes,
    size_manifests,
)

# -- the lattice ---------------------------------------------------------------

#: Ranks, smallest first; ``TOP`` is reserved for documentation — no
#: transfer function currently produces it (unknown is ``None``).
ONE, CELLS, PARTIALS, EDGES, POINTS, TOP = range(6)

RANK_OF_CLASS = {name: rank for rank, name in enumerate(SIZE_CLASSES)}
CLASS_OF_RANK = {rank: name for name, rank in RANK_OF_CLASS.items()}
CLASS_OF_RANK[TOP] = "⊤"


def _join_rank(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


@dataclass(frozen=True)
class SizeVal:
    """Abstract value: size classes plus provenance.

    ``storage`` is the class of bytes the value itself keeps resident;
    ``count`` is its element/iteration-count magnitude (``len(points)``
    stores O(1) but counts O(points)).  ``fresh`` marks values
    allocated by the *evaluated expression* (reading a name strips it);
    only fresh values are "materialized", only aliases are "retained".
    ``tag`` marks lazy engine handles ("rdd"/"broadcast") that are
    exempt from materialization events — they have rules of their own.
    ``deps`` names the parameters a symbolic summary value depends on;
    callers substitute their argument classes.  ``line`` is where the
    taint was introduced (the related "tainted here" location).
    """

    storage: int | None = None
    count: int | None = None
    fresh: bool = False
    tag: str | None = None
    line: int = 0
    deps: frozenset = frozenset()


def _join_vals(a: SizeVal | None, b: SizeVal | None) -> SizeVal | None:
    if a is None:
        return b
    if b is None:
        return a
    lines = [ln for ln in (a.line, b.line) if ln]
    return SizeVal(
        storage=_join_rank(a.storage, b.storage),
        count=_join_rank(a.count, b.count),
        fresh=a.fresh and b.fresh,
        tag=a.tag if a.tag == b.tag else None,
        line=min(lines) if lines else 0,
        deps=a.deps | b.deps,
    )


# -- sources: the repo's naming contract ---------------------------------------

#: (storage, count) classes by variable name.  Applies to bare names
#: with no local binding (module globals, closure captures) and to the
#: last segment of attribute chains (``state.points``, ``self.cells``).
#: This is the same naming-is-a-contract stance as the closure
#: analysis's ``sc`` heuristic; an explicit local assignment always
#: overrides it.
SIZE_BY_NAME = {
    "points": (POINTS, POINTS),
    "labels": (POINTS, POINTS),
    "perm": (POINTS, POINTS),
    "cell_of_point": (POINTS, POINTS),
    "partials": (POINTS, PARTIALS),   # m partial results over all points
    "edges": (EDGES, EDGES),
    "digests": (EDGES, PARTIALS),     # m digests, O(edges) bytes total
    "digest": (EDGES, PARTIALS),
    "summaries": (PARTIALS, PARTIALS),
    "gid_map": (PARTIALS, PARTIALS),
    "cells": (CELLS, CELLS),
    "counts": (CELLS, CELLS),
}

#: Count-only classes for *attribute* reads (``state.n``, ``grid.n``):
#: an O(1) scalar whose magnitude is the dataset size.  Deliberately
#: never applied to bare parameters — a bare ``n`` may count a smaller
#: universe, ``state.n`` is the paper's n — so the analyzer cannot size
#: the merge's per-point code array (`merge._point_codes`, from its
#: ``n`` argument); a `tracemalloc` test keeps it out of the edges merge.
COUNT_BY_NAME = {
    "n": POINTS,
    "num_points": POINTS,
}

#: numpy callables whose result class is the join of their array
#: arguments: elementwise, reordering, masking, and concatenation.
#: ``bincount`` is deliberately absent — its output is sized by the
#: value range, not the input length.  ``lexsort`` returns one index
#: per key row and has a rule of its own (`SizePass._lexsort_keys`).
NUMPY_PRESERVE = {
    "abs",
    "argsort",
    "array",
    "asarray",
    "ascontiguousarray",
    "ceil",
    "clip",
    "concatenate",
    "copy",
    "cumsum",
    "flatnonzero",
    "floor",
    "hstack",
    "maximum",
    "minimum",
    "nonzero",
    "rint",
    "sort",
    "stack",
    "unique",
    "vstack",
    "where",
}

#: numpy allocators whose first argument is a shape (or a length).
NUMPY_SHAPE_ALLOC = {"zeros", "empty", "ones", "full"}

#: Array methods that preserve the receiver's class.
ARRAY_PRESERVE_METHODS = {"astype", "copy", "ravel", "flatten", "tolist"}

#: Builtins that rewrap an iterable without changing its class.
ITER_BUILTINS = {
    "list", "tuple", "set", "frozenset", "sorted", "reversed",
    "iter", "zip", "enumerate",
}

#: Engine actions that materialize an RDD on the driver.
COLLECT_METHODS = {"collect"}

#: Stage classes sanctioned to hold O(points) on the driver: loading,
#: spatial reorder, index build, and label application (ISSUE scope).
SANCTIONED_STAGES = frozenset({
    "LoadPoints",
    "SpatialReorder",
    "BuildIndex",
    "MergePartials",
    "ApplyGidMap",
    "RelabelFilter",
})

_MISSING = object()

_COMP_NODES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _class_name(rank: int) -> str:
    return CLASS_OF_RANK.get(rank, "⊤")


def _preserved(val: SizeVal | None) -> SizeVal | None:
    """An element-preserving op's result: same classes, fresh storage.
    Symbolic deps-only values survive (the summary stays substitutable)."""
    if val is None:
        return None
    if val.storage is None and val.count is None and not val.deps:
        return None
    return replace(val, fresh=True, tag=None)


def _is_spark_context(analysis, scope, expr: ast.AST) -> bool:
    """SparkContext receivers: the closure analysis's type heuristic
    plus the same naming contract on attribute chains (``state.sc``)."""
    if analysis.expr_type(expr, scope) == "SparkContext":
        return True
    key = dotted_name(expr)
    if key is None:
        return False
    leaf = key.rsplit(".", 1)[-1]
    return leaf == "sc" or leaf.endswith("_sc")


# -- the per-function pass -----------------------------------------------------

class SizePass(FunctionPass[dict]):
    """Size-class pass over one function: the lattice, expression
    evaluation, the transfer function, and the checks.

    A state maps `dotted_name` keys to ``SizeVal | None``; an explicit
    ``None`` entry means "assigned, class unknown" and blocks the
    name-table fallback.  Joins are per-key value joins, so the height
    is bounded by the lattice height times the number of assigned keys.

    ``symbolic=True`` is summary mode: parameters are seeded as
    symbolic values (``deps={param}``) instead of from the name table,
    so the summary — the class of the return value, or None — stays
    valid for every caller.  Attribute reads fall back to the concrete
    name table in both modes.
    """

    symbolic = False

    # -- lattice ---------------------------------------------------------------

    def initial_state(self) -> dict:
        seed: dict = {}
        for p in parameters(self.func):
            if p in ("self", "cls"):
                continue
            if self.symbolic:
                seed[p] = SizeVal(deps=frozenset({p}))
            elif p in SIZE_BY_NAME:
                storage, count = SIZE_BY_NAME[p]
                seed[p] = SizeVal(storage, count, line=self.func.lineno)
        return seed

    def join(self, a: dict, b: dict) -> dict:
        out = dict(a)
        for key, val in b.items():
            out[key] = _join_vals(out[key], val) if key in out else val
        return out

    def _table_val(self, key: str, line: int = 0) -> SizeVal | None:
        leaf = key.rsplit(".", 1)[-1]
        hit = SIZE_BY_NAME.get(leaf)
        if hit is not None:
            return SizeVal(storage=hit[0], count=hit[1], line=line)
        if "." in key:
            count = COUNT_BY_NAME.get(leaf)
            if count is not None:
                return SizeVal(storage=ONE, count=count, line=line)
        return None

    # -- expression evaluation -------------------------------------------------

    def eval(self, state: dict, expr: ast.AST) -> SizeVal | None:
        """Abstract value of ``expr`` under ``state`` (pure)."""
        if isinstance(expr, ast.Name) or isinstance(expr, ast.Attribute):
            return self._eval_ref(state, expr)
        if isinstance(expr, ast.Constant):
            return SizeVal(ONE, ONE, fresh=True)
        if isinstance(expr, ast.Call):
            return self._eval_call(state, expr)
        if isinstance(expr, ast.Subscript):
            return self._eval_subscript(state, expr)
        if isinstance(expr, (ast.BinOp, ast.BoolOp, ast.Compare, ast.UnaryOp)):
            if isinstance(expr, ast.BinOp):
                parts = [expr.left, expr.right]
            elif isinstance(expr, ast.BoolOp):
                parts = list(expr.values)
            elif isinstance(expr, ast.Compare):
                parts = [expr.left, *expr.comparators]
            else:
                parts = [expr.operand]
            val = None
            for part in parts:
                val = _join_vals(val, self.eval(state, part))
            if val is not None and val.storage is not None:
                return replace(val, fresh=True, tag=None)
            return val
        if isinstance(expr, _COMP_NODES):
            return self._eval_comp(state, expr)
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            storage = count = None
            line = 0
            for elt in expr.elts:
                starred = isinstance(elt, ast.Starred)
                v = self.eval(state, elt.value if starred else elt)
                if v is None:
                    continue
                storage = _join_rank(storage, v.storage)
                if starred:
                    count = _join_rank(count, v.count)
                line = line or v.line
            if storage is None and count is None:
                return None
            return SizeVal(storage, _join_rank(count, ONE), fresh=True,
                           line=line or getattr(expr, "lineno", 0))
        if isinstance(expr, ast.Dict):
            storage = None
            for v_expr in expr.values:
                if v_expr is None:
                    continue
                v = self.eval(state, v_expr)
                if v is not None:
                    storage = _join_rank(storage, v.storage)
            if storage is None:
                return None
            return SizeVal(storage, ONE, fresh=True,
                           line=getattr(expr, "lineno", 0))
        if isinstance(expr, ast.IfExp):
            return _join_vals(
                self.eval(state, expr.body), self.eval(state, expr.orelse)
            )
        if isinstance(expr, (ast.Starred, ast.Await)):
            return self.eval(state, expr.value)
        if isinstance(expr, ast.NamedExpr):
            return self.eval(state, expr.value)
        return None

    def _eval_ref(self, state: dict, expr: ast.AST) -> SizeVal | None:
        if isinstance(expr, ast.Attribute):
            if expr.attr == "shape":
                base = self.eval(state, expr.value)
                if base is not None and base.count is not None:
                    return SizeVal(ONE, base.count, line=expr.lineno,
                                   deps=base.deps)
                return None
            if expr.attr == "value":
                base_key = dotted_name(expr.value)
                if base_key is not None:
                    base = state.get(base_key, _MISSING)
                    if (base is not _MISSING and base is not None
                            and base.tag == "broadcast"):
                        # b.value re-materializes the broadcast payload
                        return replace(base, tag=None, fresh=False)
        key = dotted_name(expr)
        if key is None:
            return None
        val = state.get(key, _MISSING)
        if val is not _MISSING:
            # Reading a binding is an alias, never a fresh allocation.
            return None if val is None else replace(val, fresh=False)
        return self._table_val(key, getattr(expr, "lineno", 0))

    def _eval_subscript(self, state: dict, expr: ast.Subscript) -> SizeVal | None:
        # x.shape[0] — the leading-dimension magnitude
        if (isinstance(expr.value, ast.Attribute)
                and expr.value.attr == "shape"):
            base = self.eval(state, expr.value.value)
            idx = expr.slice
            if (base is not None and base.count is not None
                    and isinstance(idx, ast.Constant) and idx.value == 0):
                return SizeVal(ONE, base.count, line=expr.lineno,
                               deps=base.deps)
            return SizeVal(ONE, ONE, line=expr.lineno)
        sl = expr.slice
        if isinstance(sl, ast.Slice):
            base = self.eval(state, expr.value)
            if base is None:
                return None
            if (isinstance(sl.lower, ast.Constant)
                    and isinstance(sl.upper, ast.Constant)):
                return SizeVal(ONE, ONE, line=expr.lineno)  # bounded window
            return replace(base, fresh=False)               # view of base
        # Fancy indexing: the result is sized by the *index* array, so
        # it works even when the base is untracked.
        idx_val = self.eval(state, sl)
        if (idx_val is not None and idx_val.storage is not None
                and idx_val.storage > ONE):
            return SizeVal(idx_val.storage, idx_val.storage, fresh=True,
                           line=expr.lineno, deps=idx_val.deps)
        return None  # scalar element: unknown

    def _lexsort_keys(self, state: dict, keys: ast.AST) -> SizeVal | None:
        """Class of ``np.lexsort``'s keys, one index per key row: the
        join over the arrays the keys are cut from, through the
        transposes, slices and column picks that keep every row
        (``x.T[::-1]``, ``(x[:, 1], x[:, 0])``)."""
        if isinstance(keys, (ast.Tuple, ast.List)):
            val = None
            for elt in keys.elts:
                if isinstance(elt, ast.Starred):
                    elt = elt.value
                val = _join_vals(val, self._lexsort_keys(state, elt))
            return val
        if isinstance(keys, ast.Attribute) and keys.attr == "T":
            return self._lexsort_keys(state, keys.value)
        if isinstance(keys, ast.Subscript):
            sl = keys.slice
            parts = sl.elts if isinstance(sl, ast.Tuple) else [sl]
            if any(isinstance(part, ast.Slice) for part in parts):
                return self._lexsort_keys(state, keys.value)
        return self.eval(state, keys)

    def _eval_comp(self, state: dict, comp: ast.AST) -> SizeVal | None:
        count = None
        deps: frozenset = frozenset()
        line = getattr(comp, "lineno", 0)
        for gen in comp.generators:
            it = self.eval(state, gen.iter)
            if it is not None and it.tag is None:
                count = _join_rank(count, it.count)
                deps |= it.deps
        elts = (
            [comp.key, comp.value] if isinstance(comp, ast.DictComp)
            else [comp.elt]
        )
        elt_storage = None
        for elt in elts:
            # Comprehension targets are unbound here; bare-name table
            # fallback for them is acceptable noise (they shadow).
            v = self.eval(state, elt)
            if v is not None:
                elt_storage = _join_rank(elt_storage, v.storage)
                deps |= v.deps
        storage = _join_rank(count, elt_storage)
        if storage is None and count is None:
            return None
        return SizeVal(storage, count, fresh=True, line=line, deps=deps)

    def _shape_count(self, state: dict, shape: ast.AST):
        """Count class of an allocator's shape argument."""
        if isinstance(shape, ast.Tuple):
            count = None
            deps: frozenset = frozenset()
            for dim in shape.elts:
                v = self.eval(state, dim)
                if v is not None:
                    count = _join_rank(count, v.count)
                    deps |= v.deps
            return count, deps
        v = self.eval(state, shape)
        if v is None:
            return None, frozenset()
        return v.count, v.deps

    def _eval_call(self, state: dict, call: ast.Call) -> SizeVal | None:
        fn = call.func
        line = call.lineno
        if isinstance(fn, ast.Name):
            if fn.id == "len" and len(call.args) == 1:
                v = self.eval(state, call.args[0])
                if v is not None and v.count is not None:
                    return SizeVal(ONE, v.count, fresh=True, line=line,
                                   deps=v.deps)
                return None
            if fn.id == "range" and call.args:
                stop = call.args[0] if len(call.args) == 1 else call.args[1]
                v = self.eval(state, stop)
                if v is not None and v.count is not None:
                    return SizeVal(ONE, v.count, fresh=True, line=line,
                                   deps=v.deps)
                return None
            if fn.id in ITER_BUILTINS:
                val = None
                for a in call.args:
                    val = _join_vals(val, self.eval(state, a))
                return _preserved(val)
        # numpy by resolved dotted name (alias-aware: np.floor → numpy.floor)
        dotted = self.analysis.resolve_dotted(fn)
        if dotted is not None and dotted.startswith("numpy."):
            leaf = dotted.rsplit(".", 1)[-1]
            if leaf == "arange" and call.args:
                stop = call.args[0] if len(call.args) == 1 else call.args[1]
                v = self.eval(state, stop)
                if v is not None and v.count is not None:
                    return SizeVal(v.count, v.count, fresh=True, line=line,
                                   deps=v.deps)
                return None
            if leaf in NUMPY_SHAPE_ALLOC and call.args:
                count, deps = self._shape_count(state, call.args[0])
                if count is not None:
                    return SizeVal(count, count, fresh=True, line=line,
                                   deps=deps)
                return None
            if leaf in NUMPY_PRESERVE:
                val = None
                for a in call.args:
                    val = _join_vals(val, self.eval(state, a))
                return _preserved(val)
            if leaf == "lexsort" and call.args:
                keys = self._lexsort_keys(state, call.args[0])
                if keys is None:
                    return None
                return _preserved(replace(keys, count=keys.storage))
            return None  # other numpy (bincount, …): unknown
        if isinstance(fn, ast.Attribute):
            engine_val = self._eval_engine_call(state, call, fn)
            if engine_val is not _MISSING:
                return engine_val
            recv = self.eval(state, fn.value)
            if recv is not None and fn.attr in ARRAY_PRESERVE_METHODS:
                return replace(recv, fresh=True, tag=None)
        callee = self.callee(call)
        if callee is not None:
            if callee.func.name in ("__init__", "__post_init__"):
                return self._ctor_val(state, call)
            return self._apply_summary(state, call, callee)
        # Unresolved CapWords call: constructor heuristic — the object
        # pins at least the storage of what it is handed.
        ctor_name = (
            fn.id if isinstance(fn, ast.Name)
            else fn.attr if isinstance(fn, ast.Attribute) else ""
        )
        if ctor_name[:1].isupper():
            return self._ctor_val(state, call)
        return None

    def _eval_engine_call(self, state: dict, call: ast.Call,
                          fn: ast.Attribute):
        """RDD/broadcast lifecycle; ``_MISSING`` when not an engine call."""
        if _is_spark_context(self.analysis, self.scope, fn.value):
            if fn.attr == "broadcast" and call.args:
                v = self.eval(state, call.args[0])
                if v is None:
                    return None
                return replace(v, tag="broadcast", fresh=False)
            if fn.attr in RDD_FACTORY_METHODS and call.args:
                v = self.eval(state, call.args[0])
                if v is None:
                    return None
                return replace(v, tag="rdd", fresh=False)
            return None
        recv = self.eval(state, fn.value)
        recv_type = self.analysis.expr_type(fn.value, self.scope)
        is_rdd = recv_type == "RDD" or (recv is not None and recv.tag == "rdd")
        if not is_rdd:
            return _MISSING
        if fn.attr in COLLECT_METHODS:
            if recv is None:
                return None
            rank = _join_rank(recv.storage, recv.count)
            if rank is None:
                return None
            return SizeVal(rank, rank, fresh=True, line=call.lineno,
                           deps=recv.deps)
        if fn.attr in RDD_CHAIN_METHODS:
            # Lineage op: the size class rides along, still lazy.
            return None if recv is None else replace(recv, tag="rdd")
        return None

    def _ctor_val(self, state: dict, call: ast.Call) -> SizeVal | None:
        storage = None
        deps: frozenset = frozenset()
        args = list(call.args) + [kw.value for kw in call.keywords]
        for a in args:
            if isinstance(a, ast.Starred):
                a = a.value
            v = self.eval(state, a)
            if v is not None:
                storage = _join_rank(storage, v.storage)
                deps |= v.deps
        if storage is None and not deps:
            return None
        return SizeVal(storage, ONE, fresh=True, line=call.lineno, deps=deps)

    def _apply_summary(self, state: dict, call: ast.Call,
                       callee: Callee) -> SizeVal | None:
        """The callee's return class with its symbolic parameters
        replaced by this call's argument classes."""
        ret = self.callee_summary(callee)
        if ret is None:
            return None
        storage, count = ret.storage, ret.count
        deps: frozenset = frozenset()
        for p in ret.deps & callee.bound.keys():
            v = self.eval(state, callee.bound[p])
            if v is not None:
                storage = _join_rank(storage, v.storage)
                count = _join_rank(count, v.count)
                deps |= v.deps
        if storage is None and count is None and not deps:
            return None
        return SizeVal(storage, count, fresh=True, tag=ret.tag,
                       line=call.lineno, deps=deps)

    # -- the transfer function -------------------------------------------------

    def transfer(self, state: dict, instr) -> dict:
        out = dict(state)
        if isinstance(instr, ForBind):
            # Per-iteration elements are unknown; an explicit None entry
            # blocks the name-table fallback from resurrecting them.
            for name in _target_names(instr.target):
                out[name] = None
            return out
        if isinstance(instr, ExceptBind):
            if instr.name:
                out[instr.name] = None
            return out
        if isinstance(instr, WithEnter):
            if instr.item.optional_vars is not None:
                for name in _target_names(instr.item.optional_vars):
                    out[name] = None
            return out
        if not isinstance(instr, ast.AST):
            return out
        if isinstance(instr, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            out[instr.name] = None
            return out
        if isinstance(instr, ast.Assign):
            val = self.eval(state, instr.value)
            for target in instr.targets:
                self._bind(state, out, target, val, instr.value)
            return out
        if isinstance(instr, ast.AnnAssign) and instr.value is not None:
            val = self.eval(state, instr.value)
            self._bind(state, out, instr.target, val, instr.value)
            return out
        if isinstance(instr, ast.AugAssign):
            key = dotted_name(instr.target)
            if key is not None:
                cur = state.get(key, _MISSING)
                if cur is _MISSING:
                    cur = self._table_val(key, instr.lineno)
                out[key] = _join_vals(cur, self.eval(state, instr.value))
            return out
        if isinstance(instr, ast.Delete):
            for target in instr.targets:
                key = dotted_name(target)
                if key is not None:
                    out[key] = None
            return out
        return out

    def _bind(self, state: dict, out: dict, target, val, value_expr) -> None:
        if isinstance(target, ast.Name):
            out[target.id] = val
            return
        if isinstance(target, ast.Attribute):
            key = dotted_name(target)
            if key is not None:
                out[key] = val
            return
        if isinstance(target, ast.Starred):
            self._bind(state, out, target.value, None, None)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            # n, d = x.shape — the leading dimension goes to the first
            # target only (the rest are fixed widths).
            if (isinstance(value_expr, ast.Attribute)
                    and value_expr.attr == "shape" and val is not None):
                for i, sub in enumerate(target.elts):
                    dim = SizeVal(ONE, val.count if i == 0 else ONE,
                                  line=val.line, deps=val.deps)
                    self._bind(state, out, sub, dim, None)
                return
            if (isinstance(value_expr, (ast.Tuple, ast.List))
                    and len(value_expr.elts) == len(target.elts)
                    and not any(isinstance(t, ast.Starred)
                                for t in target.elts)):
                for sub, sub_expr in zip(target.elts, value_expr.elts):
                    self._bind(state, out, sub,
                               self.eval(state, sub_expr), sub_expr)
                return
            for sub in target.elts:
                self._bind(state, out, sub, val, None)

    # -- the checks ------------------------------------------------------------

    def check(self, allowed: set, digest_reduction: bool,
              values: dict) -> None:
        """Report the rules ``allowed`` in this function's scope, and
        tally its assignments by class into ``values`` (``--stats``)."""
        self.allowed = allowed
        self.digest_reduction = digest_reduction
        for state, instr in self.walk().steps:
            self._check_instr(state, instr)
            self._tally(state, instr, values)

    def emit(self, rule, line, col, message, related=()) -> None:
        if rule in self.allowed:
            super().emit(rule, line, col, message, related)

    def _related(self, val: SizeVal, line: int) -> list[tuple[int, str]]:
        if val.line and val.line != line:
            return [(val.line,
                     f"tainted {_class_name(val.storage or POINTS)} here")]
        return []

    def _check_instr(self, st: dict, instr) -> None:
        if isinstance(instr, ForBind):
            it = self.eval(st, instr.iter)
            if (it is not None and it.tag is None
                    and it.count is not None and it.count >= POINTS):
                self.emit(
                    "SCL002", instr.lineno, 0,
                    f"driver-side loop with {_class_name(it.count)} trip "
                    "count; per-point driver iteration is the merge "
                    "bottleneck — push it into tasks or digest first",
                    self._related(it, instr.lineno),
                )
            return
        if not isinstance(instr, ast.AST):
            return
        if isinstance(instr, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            return
        for call in calls_within(instr):
            self._check_call(st, call)
        self._check_assign(st, instr)

    def _check_call(self, st: dict, call: ast.Call) -> None:
        fn = call.func
        if not isinstance(fn, ast.Attribute):
            return
        if (fn.attr == "broadcast" and call.args
                and _is_spark_context(self.analysis, self.scope, fn.value)):
            v = self.eval(st, call.args[0])
            if (v is not None and v.tag is None
                    and v.storage is not None and v.storage >= POINTS):
                self.emit(
                    "SCL003", call.lineno, 0,
                    f"broadcast of an {_class_name(v.storage)} value in a "
                    "cell/edges plan; every executor would hold the "
                    "dataset — ship the model or a digest instead",
                    self._related(v, call.lineno),
                )
            return
        if fn.attr not in COLLECT_METHODS:
            return
        recv = self.eval(st, fn.value)
        recv_type = self.analysis.expr_type(fn.value, self.scope)
        is_rdd = recv_type == "RDD" or (recv is not None and recv.tag == "rdd")
        if not is_rdd or recv is None:
            return
        rank = _join_rank(recv.storage, recv.count)
        if rank is None or rank < POINTS:
            return
        if self.digest_reduction:
            self.emit(
                "SCL004", call.lineno, 0,
                f"collect() of an un-digested {_class_name(rank)} RDD; an "
                "O(edges)/O(partials) digest reduction exists on the size "
                "manifest — reduce to the digest and collect that",
                self._related(recv, call.lineno),
            )
        else:
            self.emit(
                "SCL001", call.lineno, 0,
                f"collect() materializes an {_class_name(rank)} dataset on "
                "the driver outside the sanctioned stages",
                self._related(recv, call.lineno),
            )

    def _check_assign(self, st: dict, instr) -> None:
        if isinstance(instr, ast.Assign):
            targets, value = instr.targets, instr.value
        elif isinstance(instr, ast.AnnAssign) and instr.value is not None:
            targets, value = [instr.target], instr.value
        elif isinstance(instr, ast.AugAssign):
            targets, value = [instr.target], instr.value
        else:
            return
        # Collects have their own event (SCL004 / SCL001-collect).
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in COLLECT_METHODS):
            return
        val = self.eval(st, value)
        if val is None or val.tag is not None:
            return
        if val.storage is None or val.storage < POINTS:
            return
        cls = _class_name(val.storage)
        names = [k for k in (dotted_name(t) for t in targets) if k] or ["<target>"]
        if val.fresh:
            self.emit(
                "SCL001", instr.lineno, 0,
                f"driver materializes an {cls} value into {names[0]!r} "
                "outside the sanctioned stages; distribute or digest it",
                self._related(val, instr.lineno),
            )
        elif any(isinstance(t, (ast.Attribute, ast.Subscript))
                 for t in targets):
            self.emit(
                "SCL001", instr.lineno, 0,
                f"{names[0]!r} retains an {cls} value on the driver "
                "outside the sanctioned stages; the reference outlives "
                "the stage that was allowed to hold it",
                self._related(val, instr.lineno),
            )

    # -- stats -----------------------------------------------------------------

    def _tally(self, state: dict, instr, counts: dict) -> None:
        """Per-class value counts for ``--stats`` (assignments only)."""
        if isinstance(instr, ast.Assign):
            value = instr.value
        elif isinstance(instr, ast.AnnAssign) and instr.value is not None:
            value = instr.value
        else:
            return
        val = self.eval(state, value)
        if val is None or val.storage is None:
            counts["unknown"] = counts.get("unknown", 0) + 1
            return
        name = _class_name(val.storage)
        counts[name] = counts.get(name, 0) + 1


    # -- summary extraction ----------------------------------------------------

    @classmethod
    def summarize(cls, flow, analysis, func) -> SizeVal | None:
        """Join of the classes ``func`` returns, symbolic in its
        parameters; None when nothing about it is known."""
        self = cls(flow, analysis, func)
        self.symbolic = True
        ret = None
        for state, instr in self.walk().steps:
            if isinstance(instr, ast.Return) and instr.value is not None:
                ret = _join_vals(ret, self.eval(state, instr.value))
        if (ret is not None and ret.storage is None and ret.count is None
                and not ret.deps):
            return None
        return ret


# -- the project-level driver --------------------------------------------------

def _broadcast_scope_classes(project) -> set[str]:
    """Stage classes of the plans under the broadcast-size contract:
    the cell plan and every ``*_edges`` plan (SCL003 scope)."""
    out: set[str] = set()
    for manifest in manifests(project):
        for plan, entries in manifest.plans.items():
            if plan == "cell" or plan.endswith("_edges"):
                out.update(cls for cls, _line in entries)
    return out


def check_sizeclass(project) -> list[Finding]:
    """SCL001–SCL004 over the driver-side functions reachable from the
    shuffle-free plans' stages; leaves the per-class value tally in
    ``project.flow.stats["sizes"]``."""
    entry = shuffle_free_stage_classes(project)
    in_scope = project.reachable_from(entry)
    sanctioned = project.reachable_from(entry & SANCTIONED_STAGES)
    broadcast = project.reachable_from(_broadcast_scope_classes(project))
    tasks = project.task_reachable_by_module()
    digest_reduction = any(
        outp in ("O(edges)", "O(partials)")
        for size in size_manifests(project)
        for (_inp, outp, _line) in size.stages.values()
    )
    reporter = Reporter()
    values: dict[str, int] = {}
    checked = 0
    for analysis, func in project.flow.functions():
        name = analysis.module_name
        if (is_substrate(name) or func not in in_scope.get(name, ())
                or func in tasks.get(name, ())):
            continue
        allowed = {"SCL002", "SCL004"}
        if func not in sanctioned.get(name, ()):
            allowed.add("SCL001")
        if func in broadcast.get(name, ()):
            allowed.add("SCL003")
        SizePass(project.flow, analysis, func, reporter).check(
            allowed, digest_reduction, values
        )
        checked += 1
    order = {name: rank for rank, name in CLASS_OF_RANK.items()}
    project.flow.stats["sizes"] = {
        "functions": checked,
        "values": dict(sorted(
            values.items(), key=lambda kv: (order.get(kv[0], 99), kv[0])
        )),
    }
    return reporter.findings
