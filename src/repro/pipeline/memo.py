"""The kd-tree a lent context keeps between fits (DESIGN.md §3).

A `SparkContext` lent to many fits — an eps sweep — sees the same
points fit after fit, and the tree does not depend on eps.  So the
context keeps one `TreeMemo`: the last tree `BuildIndex` built on it
and that tree's broadcast.  A later fit on equal points with the same
``leaf_size`` takes both: it builds nothing, broadcasts nothing, and
the kept workers' unpickled tree (with its batched operand) stays warm
under the unchanged broadcast key.

Only lent contexts have a memo.  An owned context stops at the end of
its fit, so nothing could reuse what it kept; only `BuildIndex` trees
enter it, because `SpatialReorder` rebases the tree it builds.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - hints only
    from ..engine import SparkContext
    from ..engine.broadcast import Broadcast
    from ..kdtree import KDTree
    from .state import PipelineState


class TreeMemo:
    """One lent context's last `BuildIndex` tree and its broadcast.

    The tree is built over the memo's own copy of the points, so a
    caller that edits its array in place between fits changes nothing
    the memo compares against or serves.  A replaced broadcast is
    released as soon as no running fit reads it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tree: KDTree | None = None
        self._broadcast: Broadcast | None = None
        # Broadcast -> fits still reading it.
        self._readers: dict[Broadcast, int] = {}

    def lookup(self, points: np.ndarray, leaf_size: int) -> KDTree | None:
        """The kept tree if it indexes exactly ``points`` with
        ``leaf_size``, else None."""
        tree = self._tree
        if (tree is not None and tree.leaf_size == leaf_size
                and np.array_equal(tree.points, points)):
            return tree
        return None

    def keep(self, tree: KDTree) -> None:
        """Make ``tree`` the entry; the old entry's broadcast goes now,
        or with the last fit that reads it."""
        with self._lock:
            old, self._tree, self._broadcast = self._broadcast, tree, None
            idle = old is not None and old not in self._readers
        if idle:
            old.unpersist()

    def acquire(self, sc: SparkContext, tree: KDTree) -> Broadcast | None:
        """The entry's broadcast, issued on first use, for a fit whose
        tree is the entry; None for any other tree.  Each handle it
        returns is given back through `release`."""
        with self._lock:
            if tree is not self._tree:
                return None
            if self._broadcast is None:
                self._broadcast = sc.broadcast(tree)
            b = self._broadcast
            self._readers[b] = self._readers.get(b, 0) + 1
        return b

    def release(self, b: Broadcast) -> bool:
        """Give back a handle from `acquire`; False if ``b`` is none."""
        with self._lock:
            readers = self._readers.pop(b, 0)
            if readers == 0:
                return False
            if readers > 1:
                self._readers[b] = readers - 1
            if readers > 1 or b is self._broadcast:
                return True
        b.unpersist()
        return True


def lent_memo(state: PipelineState) -> TreeMemo | None:
    """The memo of the fit's lent context; None when the fit owns (or
    has not yet started) its context."""
    sc = state.sc
    if sc is None or state.own_sc:
        return None
    return sc.memos.setdefault("kdtree", TreeMemo())


def release_tree_broadcast(state: PipelineState) -> None:
    """End the fit's hold on its tree broadcast: give a memo's back,
    unpersist any other."""
    memo = lent_memo(state)
    if memo is None or not memo.release(state.tree_b):
        state.tree_b.unpersist()
