"""The shared evaluation engine: one index per data instance, reused by all.

:class:`Engine` owns a weak map from live documents/graphs to their
one-time indexes (:class:`~repro.engine.document.IndexedDocument`,
:class:`~repro.engine.graph.IndexedGraph`) and the graph-independent NFA
cache.  Indexes die with their data instance — the maps are
keyed weakly by object identity, so a garbage-collected tree never pins its
index and a recycled ``id()`` can never alias a stale one.

A module-level engine (:func:`get_engine`) backs the public
``repro.twig.semantics.evaluate`` and ``repro.graphdb.rpq.evaluate_rpq``
wrappers, so every existing call site gains per-instance caching without a
signature change.  :func:`reset_engine` drops all cached state (used by
benchmarks to measure cold paths); :meth:`Engine.invalidate` drops the
index of a single instance after an in-place mutation.

The engine is **thread-safe**: :mod:`repro.serving` fans one engine out
over concurrent shards, so index acquisition, invalidation, reset, and
stats hold an internal lock, and all result caches are thread-safe
:class:`~repro.engine.cache.LRUCache` instances.  Evaluation itself runs
*outside* the engine lock against an immutable index snapshot — a shard
that has acquired its :class:`IndexedDocument`/:class:`IndexedGraph` sees
one consistent version of the instance for its whole lifetime, even if a
mutation, :meth:`Engine.invalidate`, or :func:`reset_engine` lands
mid-batch.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Hashable, Sequence
from typing import Any

from repro.engine.cache import LRUCache
from repro.engine.document import IndexedDocument
from repro.engine.graph import IndexedGraph, compile_query, query_key
from repro.engine.version import instance_version
from repro.graphdb.graph import Graph, VertexId
from repro.graphdb.nfa import NFA
from repro.graphdb.pathquery import PathQuery
from repro.twig.ast import TwigQuery
from repro.xmltree.tree import XNode, XTree

Word = tuple[str, ...]

_ABSENT = object()


class _LookupTotals:
    """Engine-wide hit/miss totals of one kind of index result cache."""

    __slots__ = ("_lock", "hits", "misses")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock

    def count(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def read(self) -> tuple[int, int]:
        with self._lock:
            return self.hits, self.misses

    def reset(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0


class _CountedCache(LRUCache):
    """An index's result cache that also adds every lookup to the
    engine's totals as it happens, so the totals outlive the index."""

    __slots__ = ("_totals",)

    def __init__(self, maxsize: int, totals: _LookupTotals) -> None:
        super().__init__(maxsize)
        self._totals = totals

    def get(self, key: Hashable, default: Any = None) -> Any:
        value = super().get(key, _ABSENT)
        self._totals.count(value is not _ABSENT)
        return default if value is _ABSENT else value


class Engine:
    """Caches per-instance indexes and serves memoised query evaluation."""

    #: How many times an index rebuild is retried when a concurrent
    #: mutation bumps the instance version *during* the build.  The last
    #: build is served regardless (the next call rebuilds again), so this
    #: only bounds work under a pathological mutation storm.
    MAX_REINDEX_RETRIES = 4

    def __init__(self, *, max_cached_queries: int = 256,
                 max_graph_results: int = 1024) -> None:
        self.max_cached_queries = max_cached_queries
        self.max_graph_results = max_graph_results
        # guarded-by: _lock
        self._documents: "weakref.WeakKeyDictionary[XTree, IndexedDocument]" \
            = weakref.WeakKeyDictionary()
        # guarded-by: _lock
        self._graphs: "weakref.WeakKeyDictionary[Graph, IndexedGraph]" \
            = weakref.WeakKeyDictionary()
        self._nfas = LRUCache(512)
        # The engine lock guards only the instance->index (and build-lock)
        # map accesses.  Index *builds* run outside it, under a
        # per-instance lock — so two threads never build the same
        # instance twice concurrently, but builds for independent
        # instances (a cold sharded batch) proceed in parallel, and an
        # in-flight build never blocks acquisitions of other instances.
        self._lock = threading.RLock()
        # guarded-by: _lock
        self._build_locks: "weakref.WeakKeyDictionary[object, threading.RLock]" \
            = weakref.WeakKeyDictionary()
        # Index-build accounting: how many times an IndexedDocument /
        # IndexedGraph was (re)built — a version bump shows up here as an
        # extra build on the next acquisition.
        self._index_builds = {"document": 0, "graph": 0}  # guarded-by: _lock
        # ...of which, how many were incremental patches of the stale
        # index (edit-log splice) rather than cold rebuilds.
        self._index_patches = {"document": 0, "graph": 0}  # guarded-by: _lock
        # Lookups in every twig query-result / RPQ source-set cache the
        # engine hands an index, counted as they happen (_CountedCache).
        self._twig_lookups = _LookupTotals()
        self._rpq_lookups = _LookupTotals()

    # ------------------------------------------------------------------
    # Index acquisition
    # ------------------------------------------------------------------
    def document(self, tree: XTree) -> IndexedDocument:
        """The (cached) structural index of ``tree``.

        A stale index — the tree's version moved past the indexed one via
        ``XTree.invalidate()`` — is rebuilt transparently.
        """
        return self._acquire(tree, "document")

    def graph(self, graph: Graph) -> IndexedGraph:
        """The (cached) adjacency index of ``graph``.

        Graph mutators bump the graph's version, so an index made stale by
        ``add_vertex``/``add_edge`` is rebuilt transparently.
        """
        return self._acquire(graph, "graph")

    def _acquire(self, instance, kind: str):
        """Serve a fresh index, building under a per-instance lock."""
        with self._lock:
            index_map = self._documents if kind == "document" else self._graphs
            index = index_map.get(instance)
            if index is not None and \
                    index.version == instance_version(instance):
                return index
            build_lock = self._build_locks.get(instance)
            if build_lock is None:
                build_lock = self._build_locks[instance] = threading.RLock()
        with build_lock:
            with self._lock:  # another thread may have won the build race
                prev = index_map.get(instance)
                if prev is not None and \
                        prev.version == instance_version(instance):
                    return prev
            # The stale index is the patch base: when the instance's
            # edit log covers prev.version -> now, it is spliced instead
            # of re-traversing the whole instance.
            index = self._build(instance, kind, prev)
            with self._lock:
                index_map[instance] = index
                self._index_builds[kind] += 1
            return index

    def _build(self, instance, kind: str, prev):
        """Build an index, retrying when a concurrent mutation tears it.

        A mutation running in another thread while we snapshot can either
        complete mid-build (the instance version moves past the one the
        snapshot recorded) or leave the build reading a half-changed
        structure (which surfaces as a build error).  Both are transient,
        so both retry; a *deterministic* build failure still surfaces
        after the retry budget, since retrying cannot fix it.  A retried
        *patch* naturally widens its window: each attempt re-reads the
        edit log from ``prev.version``, which now includes the racing
        ops.
        """
        last_index = last_error = None
        for _ in range(self.MAX_REINDEX_RETRIES):
            try:
                index = self._new_index(instance, kind, prev)
            except Exception as exc:
                last_error = exc
                continue
            if index.version == instance_version(instance):
                return index
            last_index = index
        if last_index is None:
            raise last_error
        # Mutation storm: serve the newest usable build (even if a later
        # attempt failed on a torn read); the next call rebuilds.
        return last_index

    def _new_index(self, instance, kind: str, prev):
        """Splice ``prev`` along the instance's edit log when the log
        covers the gap and the edit is small; index cold otherwise."""
        if kind == "document":
            cls = IndexedDocument
            caches = {"query_cache": _CountedCache(
                self.max_cached_queries, self._twig_lookups)}
        else:
            cls = IndexedGraph
            caches = {"reachable_cache": _CountedCache(
                self.max_graph_results, self._rpq_lookups),
                "nfa_cache": self._nfas}
        if prev is not None:
            ops = instance.edits_since(prev.version)
            if ops:
                patched = cls.patched(prev, instance, ops, **caches)
                if patched is not None:
                    with self._lock:
                        self._index_patches[kind] += 1
                    return patched
        return cls(instance, **caches)

    # ------------------------------------------------------------------
    # Twig evaluation
    # ------------------------------------------------------------------
    def evaluate_twig(self, query: TwigQuery, tree: XTree) -> list[XNode]:
        """Nodes of ``tree`` selected by ``query``, in document order.

        The answer *boundary*: node objects materialise here; every
        internal consumer below works on pre-order positions instead.
        """
        return self.document(tree).evaluate(query)

    def evaluate_twig_positions(self, query: TwigQuery,
                                tree: XTree) -> tuple[int, ...]:
        """Pre-order positions selected by ``query`` (memoised).

        The positions-native twig path: stable for a fixed tree version,
        so the serving tier ships these tuples across process and wire
        boundaries and materialises nodes only on the consuming side.
        """
        return self.document(tree).evaluate_indices(query)

    def selects(self, query: TwigQuery, tree: XTree, target: XNode) -> bool:
        """Does ``query`` select precisely ``target`` in ``tree``?

        Positions-native: one position lookup plus a membership probe of
        the memoised answer tuple — no node list is materialised.  A
        ``target`` outside ``tree`` is never selected (identity
        semantics, as with the naive evaluator).
        """
        doc = self.document(tree)
        position = doc.index.get(id(target))
        if position is None:
            return False
        return position in doc.evaluate_indices(query)

    def matches_boolean(self, query: TwigQuery, tree: XTree) -> bool:
        """Boolean satisfaction: does any embedding of ``query`` exist?"""
        return bool(self.document(tree).evaluate_indices(query))

    def canonical_query(self, tree: XTree, node: XNode) -> TwigQuery:
        """Most specific twig selecting ``node`` in ``tree``.

        A cached, read-only view of the one pattern the document's index
        snapshot builds (see :meth:`IndexedDocument.canonical_query`):
        no copy is made, so callers copy before rewriting it.
        """
        return self.document(tree).canonical_query(node)

    def preorder_nodes(self, tree: XTree) -> list[XNode]:
        """The tree's pre-order node list, served from the index snapshot.

        The positions -> nodes decode table of the answer boundary:
        anything holding position tuples (a positions-native stream, a
        wire shard frame) maps them onto node objects through this list.
        Routing the enumeration through the (version-checked, cached)
        :class:`IndexedDocument` means a warm instance pays the traversal
        once per version, not once per round.  Callers must treat the
        list as read-only; it is the index's own snapshot.
        """
        return self.document(tree).nodes

    # ------------------------------------------------------------------
    # Graph / path-query evaluation
    # ------------------------------------------------------------------
    def evaluate_rpq(self, query, graph: Graph,
                     sources: Sequence[VertexId] | None = None,
                     ) -> set[tuple[VertexId, VertexId]]:
        """All ``(source, target)`` pairs linked by a query-matching path."""
        return self.graph(graph).evaluate_rpq(query, sources)

    def nfa(self, query) -> NFA:
        """The compiled NFA of ``query`` (cached; NFAs pass through)."""
        if isinstance(query, NFA):
            return query
        return self._nfas.get_or_compute(query_key(query),
                                         lambda: compile_query(query))

    def accepts(self, query, word: Sequence[str]) -> bool:
        """Does the query language contain ``word``?

        A :class:`PathQuery` is decided by the bit-parallel scan over its
        atoms (:meth:`PathQuery.scan`), whose tables the query keeps: no
        automaton is built and no memo is consulted, since a lookup
        would cost about as much as the scan.  A regex or a raw NFA
        steps its cached automaton.
        """
        if isinstance(query, PathQuery):
            return query.scan().accepts(word)
        return self.nfa(query).accepts(tuple(word))

    def words_between(self, graph: Graph, source: VertexId,
                      target: VertexId, *, max_length: int = 12,
                      limit: int | None = None) -> list[Word]:
        """Distinct simple-path label words between two vertices (cached)."""
        return self.graph(graph).words_between(source, target,
                                               max_length=max_length,
                                               limit=limit)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def invalidate(self, instance: XTree | Graph) -> None:
        """Drop the cached index of one instance (after a mutation)."""
        with self._lock:
            if isinstance(instance, XTree):
                self._documents.pop(instance, None)
            elif isinstance(instance, Graph):
                self._graphs.pop(instance, None)
            else:
                raise TypeError(
                    f"cannot invalidate {type(instance).__name__}: expected "
                    "an XTree or a Graph")

    def reset(self) -> None:
        """Drop every cached index and memo, and zero every counter.

        Safe mid-batch: in-flight shards keep evaluating against the
        snapshots they already hold; only *future* index acquisitions see
        the cleared maps and rebuild.  A lookup such a shard makes after
        the reset counts in the new stats window.
        """
        with self._lock:
            self._documents.clear()
            self._graphs.clear()
            self._build_locks.clear()
            self.reset_stats()
        self._nfas.clear()

    def stats(self) -> dict[str, object]:
        """Aggregate cache + index-build statistics.

        Hit/miss totals count every lookup in every index's result cache
        since the last reset, as it happened, so replacing, invalidating
        or collecting an index never makes the numbers go backwards.
        ``document_builds`` / ``graph_builds`` count index
        (re)constructions — a version bump (``XTree.invalidate()``, a
        ``Graph`` mutator) shows up as one extra build on the next
        evaluation.  The result is plain ints/dicts, JSON-encodable end
        to end (the serving tier ships it over the wire ``stats`` frame).
        """
        with self._lock:
            documents = len(self._documents)
            graphs = len(self._graphs)
            builds = dict(self._index_builds)
            patches = dict(self._index_patches)
        twig_hits, twig_misses = self._twig_lookups.read()
        rpq_hits, rpq_misses = self._rpq_lookups.read()
        return {
            "documents": documents,
            "graphs": graphs,
            "document_builds": builds["document"],
            "graph_builds": builds["graph"],
            "index_builds": builds["document"] + builds["graph"],
            "document_patches": patches["document"],
            "graph_patches": patches["graph"],
            "index_patches": patches["document"] + patches["graph"],
            "twig_query_hits": twig_hits,
            "twig_query_misses": twig_misses,
            "rpq_source_hits": rpq_hits,
            "rpq_source_misses": rpq_misses,
            "nfa_cache": self._nfas.stats(),
        }

    def reset_stats(self) -> None:
        """Zero every counter while keeping indexes and cached answers.

        The observability counterpart of :meth:`reset` (which drops the
        caches themselves): benchmarks and the serving stats endpoint
        call this to measure a window, not to go cold.
        """
        with self._lock:
            for kind in self._index_builds:
                self._index_builds[kind] = 0
            for kind in self._index_patches:
                self._index_patches[kind] = 0
        self._twig_lookups.reset()
        self._rpq_lookups.reset()
        self._nfas.reset_stats()


_ENGINE = Engine()


def get_engine() -> Engine:
    """The process-wide shared engine backing the module-level wrappers."""
    return _ENGINE


def reset_engine() -> None:
    """Clear the shared engine's caches (cold-start for benchmarks)."""
    _ENGINE.reset()


def evaluate(query: TwigQuery, tree: XTree) -> list[XNode]:
    """Engine-backed twig evaluation (same contract as the naive one)."""
    return _ENGINE.evaluate_twig(query, tree)


def evaluate_rpq(query, graph: Graph,
                 sources: Sequence[VertexId] | None = None,
                 ) -> set[tuple[VertexId, VertexId]]:
    """Engine-backed RPQ evaluation (same contract as the naive one)."""
    return _ENGINE.evaluate_rpq(query, graph, sources)
