"""The shared evaluation engine: one index per data instance, reused by all.

:class:`Engine` owns a weak map from live documents/graphs to their
one-time indexes (:class:`~repro.engine.document.IndexedDocument`,
:class:`~repro.engine.graph.IndexedGraph`) and the graph-independent NFA /
word-acceptance memos.  Indexes die with their data instance — the maps are
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
from collections.abc import Sequence

from repro.engine.cache import LRUCache
from repro.engine.document import IndexedDocument
from repro.engine.graph import IndexedGraph, compile_query, query_key
from repro.engine.version import instance_version
from repro.graphdb.graph import Graph, VertexId
from repro.graphdb.nfa import NFA
from repro.twig.ast import TwigQuery
from repro.xmltree.tree import XNode, XTree

Word = tuple[str, ...]


def _retire_index_on_instance_death(engine_ref, kind: str, index) -> None:
    """Finalizer callback for a dead instance (module-level on purpose:
    a bound-method callback would strong-reference the engine and keep
    every engine alive as long as any document it ever indexed)."""
    engine = engine_ref()
    if engine is not None:
        engine._retire_index(kind, index)


def _detach_finalizers(finalizers: set) -> None:
    """Engine-death finalizer: release the index references held by the
    engine's per-instance finalizers (their counters have nowhere to go
    once the engine is gone)."""
    for finalizer in list(finalizers):
        finalizer.detach()
    finalizers.clear()


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
        self._word_accepts = LRUCache(8192)
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
        # One finalizer per instance, retiring the *current* index's
        # counters when the instance dies.  Replaced on every rebuild
        # (the old one detached first) so no dead index snapshot stays
        # pinned through a finalizer argument.  The flat set exists so a
        # dying *engine* can release its finalizers' index references —
        # the weak-key map alone would die with the engine while the
        # finalize registry kept pinning every index until its instance
        # died.
        # guarded-by: _lock
        self._finalizers: "weakref.WeakKeyDictionary[object, weakref.finalize]" \
            = weakref.WeakKeyDictionary()
        self._live_finalizers: set = set()  # guarded-by: _lock
        weakref.finalize(self, _detach_finalizers, self._live_finalizers)
        # Index-build accounting: how many times an IndexedDocument /
        # IndexedGraph was (re)built — a version bump shows up here as an
        # extra build on the next acquisition.
        self._index_builds = {"document": 0, "graph": 0}  # guarded-by: _lock
        # ...of which, how many were incremental patches of the stale
        # index (edit-log splice) rather than cold rebuilds.
        self._index_patches = {"document": 0, "graph": 0}  # guarded-by: _lock
        # Hit/miss counters of per-index caches that were evicted or
        # garbage-collected since the last reset_stats(), so aggregate
        # totals never silently shrink when an instance dies.
        # guarded-by: _lock
        self._retired = {"document": {"hits": 0, "misses": 0},
                         "graph": {"hits": 0, "misses": 0}}

    # ------------------------------------------------------------------
    # Index acquisition
    # ------------------------------------------------------------------
    def document(self, tree: XTree) -> IndexedDocument:
        """The (cached) structural index of ``tree``.

        A stale index — the tree's version moved past the indexed one via
        ``XTree.invalidate()`` — is rebuilt transparently.
        """
        return self._acquire(
            # repro: allow[lock-discipline] passes the map by reference
            # only; _acquire touches it strictly under `with self._lock:`.
            tree, self._documents,
            lambda prev: self._patch_or_build_document(tree, prev),
            "document")

    def graph(self, graph: Graph) -> IndexedGraph:
        """The (cached) adjacency index of ``graph``.

        Graph mutators bump the graph's version, so an index made stale by
        ``add_vertex``/``add_edge`` is rebuilt transparently.
        """
        return self._acquire(
            # repro: allow[lock-discipline] passes the map by reference
            # only; _acquire touches it strictly under `with self._lock:`.
            graph, self._graphs,
            lambda prev: self._patch_or_build_graph(graph, prev),
            "graph")

    def _patch_or_build_document(self, tree: XTree,
                                 prev: IndexedDocument | None,
                                 ) -> IndexedDocument:
        """Splice ``prev`` along the tree's edit log when the log covers
        the gap and the edit is small; cold-rebuild otherwise."""
        if prev is not None:
            ops = tree.edits_since(prev.version)
            if ops:
                patched = IndexedDocument.patched(
                    prev, tree, ops,
                    max_cached_queries=self.max_cached_queries)
                if patched is not None:
                    with self._lock:
                        self._index_patches["document"] += 1
                    return patched
        return IndexedDocument(tree,
                               max_cached_queries=self.max_cached_queries)

    def _patch_or_build_graph(self, graph: Graph,
                              prev: IndexedGraph | None) -> IndexedGraph:
        """Graph twin of :meth:`_patch_or_build_document`."""
        if prev is not None:
            ops = graph.edits_since(prev.version)
            if ops:
                patched = IndexedGraph.patched(
                    prev, graph, ops,
                    max_cached_results=self.max_graph_results,
                    nfa_cache=self._nfas)
                if patched is not None:
                    with self._lock:
                        self._index_patches["graph"] += 1
                    return patched
        return IndexedGraph(graph, max_cached_results=self.max_graph_results,
                            nfa_cache=self._nfas)

    def _acquire(self, instance, index_map, build, kind):
        """Serve a fresh index, building under a per-instance lock."""
        with self._lock:
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
            # edit log covers prev.version -> now, the build callable
            # splices it instead of re-traversing the whole instance.
            index = self._build(instance, build, prev)
            with self._lock:
                stale = index_map.get(instance)
                index_map[instance] = index
                self._index_builds[kind] += 1
                old_finalizer = self._finalizers.pop(instance, None)
            # Detach before retiring: the old finalizer's strong argument
            # reference is what would otherwise pin the replaced snapshot
            # (pre-order arrays, label sets) for the instance's lifetime.
            if old_finalizer is not None:
                old_finalizer.detach()
                with self._lock:
                    self._live_finalizers.discard(old_finalizer)
            if stale is not None:
                # The replaced index takes its hit/miss history with it;
                # fold it into the retired totals.
                self._retire_index(kind, stale)
            # When the instance dies, the *current* index's counters move
            # into the retired totals too, so aggregate stats never
            # shrink just because a document was garbage-collected (the
            # serving tier decodes short-lived instances per request).
            finalizer = weakref.finalize(
                instance, _retire_index_on_instance_death,
                weakref.ref(self), kind, index)
            with self._lock:
                self._finalizers[instance] = finalizer
                self._live_finalizers.add(finalizer)
                if len(self._live_finalizers) > 2 * (
                        len(self._documents) + len(self._graphs) + 1):
                    # Spent finalizers (fired or detached) are empty
                    # husks; prune in place — the engine-death finalizer
                    # above captured this exact set object.
                    self._live_finalizers.difference_update(
                        [f for f in self._live_finalizers if not f.alive])
            return index

    def _retire_index(self, kind: str, index) -> None:
        """Fold a dead/replaced index's counters into the retired totals.

        Exactly once per index: the replace path and the instance-death
        finalizer can both reach the same index.
        """
        with self._lock:
            if getattr(index, "_stats_retired", False):
                return
            index._stats_retired = True
            cache_stats = index.cache_stats()
            self._retired[kind]["hits"] += cache_stats["hits"]
            self._retired[kind]["misses"] += cache_stats["misses"]

    def _build(self, instance, build, prev=None):
        """Build an index, retrying when a concurrent mutation tears it.

        A mutation running in another thread while we snapshot can either
        complete mid-build (the instance version moves past the one the
        snapshot recorded) or leave the build reading a half-changed
        structure (which surfaces as a build error).  Both are transient,
        so both retry; a *deterministic* build failure still surfaces
        after the retry budget, since retrying cannot fix it.  A retried
        *patch* naturally widens its window: the callable re-reads the
        edit log from ``prev.version``, which now includes the racing
        ops.
        """
        last_index = last_error = None
        for _ in range(self.MAX_REINDEX_RETRIES):
            try:
                index = build(prev)
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
        """Does the query language contain ``word``?  Memoised."""
        key = (query_key(query), tuple(word))
        cached = self._word_accepts.get(key)
        if cached is None:
            cached = self.nfa(query).accepts(tuple(word))
            self._word_accepts.put(key, cached)
        return cached

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
        if isinstance(instance, XTree):
            kind, dropped = "document", None
            with self._lock:
                dropped = self._documents.pop(instance, None)
                finalizer = self._finalizers.pop(instance, None)
        elif isinstance(instance, Graph):
            kind, dropped = "graph", None
            with self._lock:
                dropped = self._graphs.pop(instance, None)
                finalizer = self._finalizers.pop(instance, None)
        else:
            raise TypeError(
                f"cannot invalidate {type(instance).__name__}: expected "
                "an XTree or a Graph")
        if finalizer is not None:
            finalizer.detach()
            with self._lock:
                self._live_finalizers.discard(finalizer)
        if dropped is not None:
            self._retire_index(kind, dropped)

    def reset(self) -> None:
        """Drop every cached index and memo.

        Safe mid-batch: in-flight shards keep evaluating against the
        snapshots they already hold; only *future* index acquisitions see
        the cleared maps and rebuild.
        """
        with self._lock:
            # A reset is a cold start: stats always derived from the live
            # maps before the counters existed, so they go cold too — and
            # the dropped indexes must not resurface in the retired
            # totals when their instances die later.
            for index in self._documents.values():
                index._stats_retired = True
            for index in self._graphs.values():
                index._stats_retired = True
            for finalizer in list(self._live_finalizers):
                finalizer.detach()
            self._live_finalizers.clear()
            self._finalizers.clear()
            self._documents.clear()
            self._graphs.clear()
            self._build_locks.clear()
            for kind in self._index_builds:
                self._index_builds[kind] = 0
            for kind in self._index_patches:
                self._index_patches[kind] = 0
            for retired in self._retired.values():
                retired["hits"] = 0
                retired["misses"] = 0
        self._nfas.clear()
        self._word_accepts.clear()
        self._nfas.reset_stats()
        self._word_accepts.reset_stats()

    def stats(self) -> dict[str, object]:
        """Aggregate cache + index-build statistics.

        Hit/miss totals sum the per-:class:`~repro.engine.cache.LRUCache`
        counters across every live ``IndexedDocument``/``IndexedGraph``
        plus the retired history of replaced indexes, so a rebuild never
        makes the numbers go backwards.  ``document_builds`` /
        ``graph_builds`` count index (re)constructions — a version bump
        (``XTree.invalidate()``, a ``Graph`` mutator) shows up as one
        extra build on the next evaluation.  The result is plain
        ints/dicts, JSON-encodable end to end (the serving tier ships it
        over the wire ``stats`` frame).
        """
        with self._lock:
            doc_stats = [d.cache_stats() for d in self._documents.values()]
            graph_stats = [g.cache_stats() for g in self._graphs.values()]
            builds = dict(self._index_builds)
            patches = dict(self._index_patches)
            retired_doc = dict(self._retired["document"])
            retired_graph = dict(self._retired["graph"])
        return {
            "documents": len(doc_stats),
            "graphs": len(graph_stats),
            "document_builds": builds["document"],
            "graph_builds": builds["graph"],
            "index_builds": builds["document"] + builds["graph"],
            "document_patches": patches["document"],
            "graph_patches": patches["graph"],
            "index_patches": patches["document"] + patches["graph"],
            "twig_query_hits":
                sum(s["hits"] for s in doc_stats) + retired_doc["hits"],
            "twig_query_misses":
                sum(s["misses"] for s in doc_stats) + retired_doc["misses"],
            "rpq_source_hits":
                sum(s["hits"] for s in graph_stats) + retired_graph["hits"],
            "rpq_source_misses":
                sum(s["misses"] for s in graph_stats)
                + retired_graph["misses"],
            "nfa_cache": self._nfas.stats(),
            "word_accepts": self._word_accepts.stats(),
        }

    def reset_stats(self) -> None:
        """Zero every counter while keeping indexes and cached answers.

        The observability counterpart of :meth:`reset` (which drops the
        caches themselves): benchmarks and the serving stats endpoint
        call this to measure a window, not to go cold.
        """
        with self._lock:
            for index in self._documents.values():
                index.reset_cache_stats()
            for index in self._graphs.values():
                index.reset_cache_stats()
            for kind in self._index_builds:
                self._index_builds[kind] = 0
            for kind in self._index_patches:
                self._index_patches[kind] = 0
            for retired in self._retired.values():
                retired["hits"] = 0
                retired["misses"] = 0
        self._nfas.reset_stats()
        self._word_accepts.reset_stats()


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
