"""Per-document evaluation index: columnar arrays, build once, query many.

:class:`IndexedDocument` wraps an :class:`~repro.xmltree.tree.XTree` with
the structures every twig evaluation needs but the naive evaluator rebuilds
per call — stored *columnar*, as flat parallel integer arrays indexed by
pre-order position, in the spirit of factorised/in-database learning
(compute over a compact representation; materialise objects only at the
boundary):

* ``parent`` / ``depth`` / ``last_descendant`` — one :class:`array.array`
  slot per node.  A node's proper descendants are exactly the contiguous
  pre-order slice ``i+1 .. last_descendant[i]``, so ancestor/descendant
  tests are two integer comparisons and the structural joins below are
  interval merges over sorted arrays;
* a label -> sorted-position array inverted index (labels interned to
  dense ids), so ``candidates(label)`` is a pre-sorted slice and the
  bottom-up pass only touches label-compatible positions;
* an LRU-bounded query-result cache keyed by the query's canonical form,
  so the repeated evaluations an interactive learner performs against a
  fixed document after every user interaction cost one dict lookup;
* the document read as one twig pattern, built once per snapshot from
  the columns, and a cache of the learner's per-node canonical queries
  ("most specific query"): read-only views of that one pattern, each
  selecting its node, served without a copy.

Twig matching is two linear passes of merge/two-pointer loops over these
arrays (`_bottom_up` / `_top_down`); answers travel internally as sorted
pre-order position tuples and become :class:`~repro.xmltree.tree.XNode`
objects only in :meth:`evaluate`.

The index snapshot carries the tree's version: ``XTree.invalidate()`` (the
hook the parent-map cache already required after a mutation) bumps it, and
the engine rebuilds a stale index transparently on the next evaluation.
"""

from __future__ import annotations

import weakref
from array import array
from bisect import bisect_left, insort
from collections.abc import Sequence

from repro.engine.cache import LRUCache
from repro.engine.version import instance_version
from repro.twig.ast import Axis, TwigNode, TwigQuery
from repro.xmltree.tree import XNode, XTree


def _intersect_sorted(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Merge-intersection of two strictly-increasing position sequences."""
    out: list[int] = []
    ia = ib = 0
    la, lb = len(a), len(b)
    while ia < la and ib < lb:
        x, y = a[ia], b[ib]
        if x == y:
            out.append(x)
            ia += 1
            ib += 1
        elif x < y:
            ia += 1
        else:
            ib += 1
    return out


class IndexedDocument:
    """One-time columnar index over a document, plus result caches."""

    def __init__(self, tree: XTree, *,
                 query_cache: LRUCache | None = None) -> None:
        # Weak back-reference: the engine maps trees to indexes weakly, so
        # a strong ref here would keep every indexed tree alive forever.
        self._tree = weakref.ref(tree)
        self.version: int = instance_version(tree)
        # Pre-order columns, built in ONE traversal that captures each
        # node's children list exactly once: a concurrent atomic mutation
        # (one list op on one node) can only move the whole snapshot
        # before or after itself — a two-pass build could interleave the
        # passes around the mutation and cache a mixed-version index.
        # All columns are immutable after construction: shards read them
        # concurrently with no lock (snapshot semantics).
        nodes: list[XNode] = []
        index: dict[int, int] = {}
        parent = array("l")   # lock-free: immutable pre-order snapshot
        depth = array("l")    # lock-free: immutable pre-order snapshot
        label_ids = array("l")  # lock-free: immutable pre-order snapshot
        label_table: dict[str, int] = {}
        stack: list[tuple[XNode, int]] = [(tree.root, -1)]
        while stack:
            x, parent_ix = stack.pop()
            i = len(nodes)
            nodes.append(x)
            index[id(x)] = i
            parent.append(parent_ix)
            depth.append(0 if parent_ix < 0 else depth[parent_ix] + 1)
            label_id = label_table.setdefault(x.label, len(label_table))
            label_ids.append(label_id)
            # reversed() keeps pre-order left-to-right (cf. XNode.iter).
            stack.extend((child, i) for child in reversed(list(x.children)))
        n = len(nodes)
        # last_descendant[i] = highest pre-order index inside i's subtree,
        # by propagating subtree ends to parents in reverse pre-order
        # (parent[i] < i always holds for pre-order positions).
        last = array("l", range(n))
        for i in range(n - 1, 0, -1):
            p = parent[i]
            if last[i] > last[p]:
                last[p] = last[i]
        # Inverted label index: positions are appended in pre-order, so
        # each per-label array is already sorted ascending.
        by_label: dict[str, array[int]] = {
            label: array("l") for label in label_table
        }
        node_labels = [x.label for x in nodes]
        for i in range(n):
            by_label[node_labels[i]].append(i)
        self.nodes: list[XNode] = nodes
        self._index: dict[int, int] | None = index
        self.parent = parent  # lock-free: immutable after __init__
        self.depth = depth    # lock-free: immutable after __init__
        self.label_ids = label_ids  # lock-free: immutable after __init__
        self.last_descendant = last  # lock-free: immutable after __init__
        self._label_table: dict[str, int] = label_table
        self._label_positions: dict[str, array[int]] = by_label
        self._all_positions = array("l", range(n))
        # An engine passes a fresh cache that also counts every lookup
        # into its engine-wide totals.
        self._query_cache = query_cache if query_cache is not None \
            else LRUCache(256)
        # Built on the first canonical_query call.  Two threads may race
        # the build: each publishes a complete pattern of this snapshot,
        # and a view of either is correct (the benign race of ``index``).
        self._pattern: list[TwigNode] | None = None
        self._views: dict[int, TwigQuery] = {}

    @property
    def tree(self) -> XTree:
        tree = self._tree()
        if tree is None:
            raise ReferenceError("the indexed document has been collected")
        return tree

    @property
    def index(self) -> dict[int, int]:
        """The ``id(node) -> pre-order position`` map.

        Built lazily after a splice patch; the rebuild is idempotent
        (same nodes, same positions), so a benign publish race between
        concurrent readers leaves an identical dict either way.
        """
        idx = self._index
        if idx is None:
            idx = {id(x): i for i, x in enumerate(self.nodes)}
            self._index = idx
        return idx

    # -- incremental reindexing ----------------------------------------
    #: Give up and rebuild above this many ops per patch window.
    MAX_PATCH_OPS = 16
    #: ...or when the spliced subtrees exceed this fraction of the
    #: document (patch cost approaches rebuild cost, with none of the
    #: single-traversal simplicity).
    MAX_PATCH_FRACTION = 0.25

    @classmethod
    def patched(cls, prev: "IndexedDocument", tree: XTree,
                ops: Sequence[dict], *,
                query_cache: LRUCache | None = None,
                ) -> "IndexedDocument | None":
        """A fresh index equal to rebuilding ``tree``, built by splicing
        ``prev``'s columns along the edit-log ``ops`` — or ``None`` when
        patching is not worthwhile (caller rebuilds).

        The result is a *new* immutable snapshot: ``prev`` and all its
        columns stay untouched, so concurrent shards holding the old
        index keep their consistent view.  Cost is proportional to the
        edit (spliced subtree sizes plus one pre-order tail shift)
        instead of the document; result caches start cold, since the
        answers changed.

        Correctness leans on two facts: pre-order intervals are laminar
        (the head positions whose ``last_descendant`` crosses a splice
        point are exactly the splice point's ancestor chain, and each
        ancestor's interval grows/shrinks by exactly the spliced size),
        and each op was snapshotted when it happened (a replayed insert
        never sees edits that landed inside its subtree later — those
        are later ops, replayed in order against the patched state).
        """
        if not ops or len(ops) > cls.MAX_PATCH_OPS:
            return None
        budget = max(64, int(len(prev.nodes) * cls.MAX_PATCH_FRACTION))
        # Working state; splice ops replace these containers wholesale
        # and relabels copy-on-write, so prev's columns are never
        # written.  Each op's ``path`` was recorded against the state
        # the previous ops produce, so resolving it against the working
        # columns is exact.
        nodes = prev.nodes
        parent = prev.parent
        depth = prev.depth
        label_ids = prev.label_ids
        last = prev.last_descendant
        label_table = prev._label_table
        by_label = prev._label_positions
        own_labels = False  # label state copied-on-write yet?
        labels_by_id: list[str] | None = None

        def own_label_state() -> None:
            nonlocal label_table, by_label, label_ids, own_labels
            if not own_labels:
                label_table = dict(label_table)
                by_label = dict(by_label)
                label_ids = array("l", label_ids)
                own_labels = True

        def label_of(lid: int) -> str:
            nonlocal labels_by_id
            if labels_by_id is None or len(labels_by_id) < len(label_table):
                labels_by_id = [""] * len(label_table)
                for lab, i in label_table.items():
                    labels_by_id[i] = lab
            return labels_by_id[lid]

        def child_slot(p_pos: int, k: int) -> int:
            """Pre-order position where child ``k`` of ``p_pos`` starts
            (``last[p_pos] + 1`` when appending past the final child),
            or -1 when the node has fewer than ``k`` children.  Each
            hop skips a whole child subtree via its interval end."""
            child = p_pos + 1
            for _ in range(k):
                if child > last[p_pos]:
                    return -1
                child = last[child] + 1
            return child

        def pos_at(path: Sequence[int]) -> int:
            pos = 0
            for k in path:
                child = child_slot(pos, k)
                if child < 0 or child > last[pos]:
                    return -1
                pos = child
            return pos

        spliced = False
        touched = 0
        for op in ops:
            name = op.get("op")
            if name == "relabel":
                pos = pos_at(op["path"])
                if pos < 0:
                    return None
                own_label_state()
                new_label = op["label"]
                new_id = label_table.setdefault(new_label, len(label_table))
                old_id = label_ids[pos]
                if new_id == old_id:
                    continue  # text-only edit; nothing indexed moved
                label_ids[pos] = new_id
                old_label = label_of(old_id)
                old_arr = by_label[old_label]
                k = bisect_left(old_arr, pos)
                shrunk = old_arr[:k]
                shrunk.extend(old_arr[k + 1:])
                by_label[old_label] = shrunk
                grown = array("l", by_label.get(new_label, ()))
                insort(grown, pos)
                by_label[new_label] = grown
                continue
            if name == "insert":
                pre_nodes: list[XNode] = op["pre_nodes"]
                pre_parents: list[int] = op["pre_parents"]
                pre_labels: list[str] = op["pre_labels"]
                m = len(pre_nodes)
                touched += m
                if touched > budget:
                    return None
                p_pos = pos_at(op["path"])
                if p_pos < 0:
                    return None
                pos = child_slot(p_pos, op["index"])
                if pos < 0:
                    return None
                own_label_state()
                spliced = True
                new_nodes = nodes[:pos]
                new_nodes.extend(pre_nodes)
                new_nodes.extend(nodes[pos:])
                new_parent = parent[:pos]
                new_parent.extend(p_pos if pp < 0 else pos + pp
                                  for pp in pre_parents)
                new_parent.extend(v + m if v >= pos else v
                                  for v in parent[pos:])
                rel = [0] * m
                for j in range(1, m):
                    rel[j] = rel[pre_parents[j]] + 1
                base_depth = depth[p_pos] + 1
                new_depth = depth[:pos]
                new_depth.extend(base_depth + r for r in rel)
                new_depth.extend(depth[pos:])
                new_label_ids = label_ids[:pos]
                new_label_ids.extend(
                    label_table.setdefault(lab, len(label_table))
                    for lab in pre_labels)
                new_label_ids.extend(label_ids[pos:])
                # Segment interval ends by the usual reverse pre-order
                # propagation; every ancestor of the insert point grows
                # by m, every tail interval shifts by m (tail ends are
                # >= their own position >= pos).
                seg_last = list(range(m))
                for j in range(m - 1, 0, -1):
                    pp = pre_parents[j]
                    if seg_last[j] > seg_last[pp]:
                        seg_last[pp] = seg_last[j]
                new_last = last[:pos]
                a = p_pos
                while a >= 0:
                    new_last[a] += m
                    a = parent[a]
                new_last.extend(pos + v for v in seg_last)
                new_last.extend(v + m for v in last[pos:])
                seg_by_label: dict[str, list[int]] = {}
                for j, lab in enumerate(pre_labels):
                    seg_by_label.setdefault(lab, []).append(pos + j)
                for lab in set(by_label) | set(seg_by_label):
                    arr = by_label.get(lab)
                    mid = seg_by_label.get(lab, ())
                    if arr is None:
                        by_label[lab] = array("l", mid)
                        continue
                    k = bisect_left(arr, pos)
                    if k == len(arr) and not mid:
                        continue  # entirely below the splice; share
                    out = arr[:k]
                    out.extend(mid)
                    out.extend(v + m for v in arr[k:])
                    by_label[lab] = out
                nodes, parent, depth, label_ids, last = (
                    new_nodes, new_parent, new_depth, new_label_ids,
                    new_last)
                continue
            if name == "delete":
                pos = pos_at(op["path"])
                if pos < 0:
                    return None
                m = last[pos] - pos + 1
                end = pos + m
                touched += m
                if touched > budget:
                    return None
                own_label_state()
                spliced = True
                new_nodes = nodes[:pos]
                new_nodes.extend(nodes[end:])
                # Tail parents are either before the splice (< pos:
                # unchanged) or after it (>= end: shift); a parent
                # inside [pos, end) would mean a survivor hanging off
                # the deleted subtree, which cannot happen.
                new_parent = parent[:pos]
                new_parent.extend(v - m if v >= end else v
                                  for v in parent[end:])
                new_depth = depth[:pos]
                new_depth.extend(depth[end:])
                new_label_ids = label_ids[:pos]
                new_label_ids.extend(label_ids[end:])
                new_last = last[:pos]
                a = parent[pos]
                while a >= 0:
                    new_last[a] -= m
                    a = parent[a]
                new_last.extend(v - m for v in last[end:])
                for lab in list(by_label):
                    arr = by_label[lab]
                    k1 = bisect_left(arr, pos)
                    if k1 == len(arr):
                        continue  # entirely below the splice; share
                    k2 = bisect_left(arr, end)
                    out = arr[:k1]
                    out.extend(v - m for v in arr[k2:])
                    by_label[lab] = out
                nodes, parent, depth, label_ids, last = (
                    new_nodes, new_parent, new_depth, new_label_ids,
                    new_last)
                continue
            return None  # unknown op kind — let the caller rebuild
        out = cls.__new__(cls)
        out._tree = weakref.ref(tree)
        # Versioned as prev + the ops applied, NOT the live tree's
        # version: if a mutation raced in between, the engine's
        # version check fails and it rebuilds with a wider window.
        out.version = prev.version + len(ops)
        out.nodes = nodes
        # Splices invalidate every tail position's dict entry, and the
        # next patch window often lands before anyone asks order_of —
        # so the id -> position map is rebuilt lazily, not per patch.
        out._index = None if spliced else prev._index
        out.parent = parent
        out.depth = depth
        out.label_ids = label_ids
        out.last_descendant = last
        out._label_table = label_table
        out._label_positions = by_label
        out._all_positions = (array("l", range(len(nodes)))
                              if spliced else prev._all_positions)
        out._query_cache = query_cache if query_cache is not None \
            else LRUCache(256)
        out._pattern = None
        out._views = {}
        return out

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def order_of(self, node: XNode) -> int:
        """Document (pre-order) position of ``node``."""
        try:
            return self.index[id(node)]
        except KeyError:
            raise ValueError("node does not belong to this document") \
                from None

    def is_ancestor(self, a: int, d: int) -> bool:
        """Is node ``a`` a proper ancestor of node ``d``?  O(1)."""
        return a < d <= self.last_descendant[a]

    def candidates(self, label: str) -> Sequence[int]:
        """Sorted positions a query node with ``label`` can map to.

        A pre-built array slice — callers must not mutate it.
        """
        if label == "*":
            return self._all_positions
        positions = self._label_positions.get(label)
        return positions if positions is not None else ()

    # ------------------------------------------------------------------
    # Indexed twig evaluation: the same two-pass DP as the naive
    # evaluator, but every per-query-node candidate set is a sorted
    # position list and every axis join is a merge / two-pointer loop
    # over the pre-order interval columns.
    # ------------------------------------------------------------------
    def _bottom_up(self, query_root: TwigNode) -> dict[int, list[int]]:
        """Sorted positions each query node can map to, children first."""
        parent = self.parent
        last = self.last_descendant
        cand: dict[int, list[int]] = {}
        order: list[TwigNode] = []
        stack = [query_root]
        while stack:
            q = stack.pop()
            order.append(q)
            stack.extend(child for _, child in q.branches)
        for qnode in reversed(order):
            base = list(self.candidates(qnode.label))
            for axis, qchild in qnode.branches:
                if not base:
                    break
                child_cand = cand[id(qchild)]
                if axis is Axis.CHILD:
                    parents = sorted({parent[j] for j in child_cand
                                      if parent[j] >= 0})
                    base = _intersect_sorted(base, parents)
                else:
                    # Keep i iff its subtree interval (i, last[i]] holds
                    # some child candidate; both lists ascend, so the
                    # probe pointer k only ever moves forward.
                    kept: list[int] = []
                    k, m = 0, len(child_cand)
                    for i in base:
                        while k < m and child_cand[k] <= i:
                            k += 1
                        if k < m and child_cand[k] <= last[i]:
                            kept.append(i)
                    base = kept
            cand[id(qnode)] = base
        return cand

    def _top_down(self, query: TwigQuery,
                  cand: dict[int, list[int]]) -> list[int]:
        """Sorted positions each query node is *reachable* at; returns the
        selected node's positions."""
        parent = self.parent
        last = self.last_descendant
        reach: dict[int, list[int]] = {}
        root_cand = cand[id(query.root)]
        if query.root_axis is Axis.CHILD:
            reach[id(query.root)] = \
                [0] if root_cand and root_cand[0] == 0 else []
        else:
            reach[id(query.root)] = root_cand
        stack: list[TwigNode] = [query.root]
        while stack:
            qnode = stack.pop()
            here = reach[id(qnode)]
            flags: bytearray | None = None
            for axis, qchild in qnode.branches:
                child_cand = cand[id(qchild)]
                if axis is Axis.CHILD:
                    if flags is None:
                        flags = bytearray(len(self.nodes))
                        for i in here:
                            flags[i] = 1
                    reach[id(qchild)] = [
                        j for j in child_cand
                        if parent[j] >= 0 and flags[parent[j]]
                    ]
                else:
                    # Sweep ``here``'s descendant intervals (i, last[i]]
                    # left to right, merging nested/overlapping spans,
                    # and collect the child candidates inside each.
                    kept: list[int] = []
                    k, m = 0, len(child_cand)
                    covered_up_to = -1
                    for i in here:
                        lo = max(i + 1, covered_up_to + 1)
                        hi = last[i]
                        if hi < lo:
                            continue
                        while k < m and child_cand[k] < lo:
                            k += 1
                        while k < m and child_cand[k] <= hi:
                            kept.append(child_cand[k])
                            k += 1
                        covered_up_to = hi
                    reach[id(qchild)] = kept
                stack.append(qchild)
        return reach[id(query.selected)]

    def _answer_indices(self, query: TwigQuery) -> tuple[int, ...]:
        cand = self._bottom_up(query.root)
        if not cand[id(query.root)]:
            return ()
        return tuple(self._top_down(query, cand))

    def evaluate_indices(self, query: TwigQuery,
                         key: tuple | None = None) -> tuple[int, ...]:
        """Pre-order positions selected by ``query`` (memoised).

        ``key`` is the query's canonical form, if the caller already has
        it: the batch evaluator canonicalises a hypothesis **once** per
        workload instead of once per (query, document) pair.  Positions
        are stable for a fixed tree version, so the serving tier ships
        them over the wire and the client maps them onto its own node
        objects.
        """
        if key is None:
            key = query.canonical()
        result: tuple[int, ...] = self._query_cache.get_or_compute(
            key, lambda: self._answer_indices(query))
        return result

    def evaluate(self, query: TwigQuery,
                 key: tuple | None = None) -> list[XNode]:
        """Nodes selected by ``query``, in document order (memoised).

        The *only* twig path that materialises node objects — everything
        upstream computes over pre-order positions.
        """
        nodes = self.nodes
        return [nodes[i] for i in self.evaluate_indices(query, key)]

    # ------------------------------------------------------------------
    # Canonical queries (the learner's per-example starting point)
    # ------------------------------------------------------------------
    def canonical_query(self, node: XNode) -> TwigQuery:
        """Most specific twig selecting ``node``: a cached, read-only view.

        Every view of this snapshot shares one pattern, the document read
        as a twig (all child edges, all labels concrete), and selects its
        own node; a repeated call returns the same object.  Callers must
        not rewrite it: every operation that rewrites a pattern
        (``anchor_repair``, ``minimize``, ``prune_schema_implied``) copies
        it first.
        """
        position = self.order_of(node)
        view = self._views.get(position)
        if view is None:
            pattern = self._pattern
            if pattern is None:
                pattern = self._pattern = self._build_pattern()
            view = TwigQuery(Axis.CHILD, pattern[0], pattern[position])
            self._views[position] = view
        return view

    def _build_pattern(self) -> list[TwigNode]:
        """One pattern node per pre-order position, from the label and
        parent columns, so the pattern is the snapshot this index
        answers for (a later relabel changes the live node, not these
        columns)."""
        labels = [""] * len(self._label_table)
        for label, label_id in self._label_table.items():
            labels[label_id] = label
        pattern = [TwigNode(labels[label_id]) for label_id in self.label_ids]
        parent = self.parent
        # Children follow their parent in pre-order, left to right.
        for i in range(1, len(pattern)):
            pattern[parent[i]].branches.append((Axis.CHILD, pattern[i]))
        return pattern

    # ------------------------------------------------------------------
    def cache_stats(self) -> dict[str, int]:
        stats: dict[str, int] = self._query_cache.stats()
        return stats

    def __repr__(self) -> str:
        return (f"<IndexedDocument |t|={len(self.nodes)} "
                f"cache={self._query_cache!r}>")
