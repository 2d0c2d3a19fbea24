"""Per-graph evaluation index: CSR adjacency, bitset RPQ, memoisation.

:class:`IndexedGraph` wraps a :class:`~repro.graphdb.graph.Graph` with the
state the interactive path learners recompute on every call — stored
*columnar*: vertices are interned to dense integer ids and adjacency lives
in per-label CSR (compressed sparse row) arrays instead of dicts of tuple
lists:

* per-label forward CSR ``(indptr, targets)`` arrays plus a per-label,
  per-source **bitset row** (one Python int whose bit *j* is set iff the
  edge ``source --label--> vertices[j]`` exists), so the product BFS in
  :meth:`_reachable_from` propagates whole frontiers with integer ``|``
  and ``&`` instead of queueing ``(vertex, state-set)`` pairs;
* per-label reverse CSR arrays backing :meth:`in_edges` (the seam for
  target-anchored evaluation);
* a compiled-NFA cache — ``PathQuery``/``Regex`` values hash structurally,
  raw ``NFA`` objects hash by identity and are pinned by the cache entry,
  so recycled ``id()`` values can never alias a stale entry;
* a per-``(query, source)`` product-automaton reachability memo serving
  ``evaluate_rpq`` — the same lazily-determinised product construction as
  the naive evaluator, run at most once per source per query, with NFA
  state-sets interned to dense dstate ids and one visited-bitmask per
  dstate;
* a memo for the simple-path word enumeration that seeds every interactive
  graph session (word *acceptance* is graph-independent and decided by
  the :class:`~repro.engine.core.Engine` itself).

Vertex ids materialise back into caller-visible ``VertexId`` values only at
the answer boundary (:meth:`evaluate_rpq` / :meth:`in_edges`).

The snapshot carries the graph's version, which every ``Graph`` mutator
bumps — the engine rebuilds a stale index transparently on the next call.
"""

from __future__ import annotations

import weakref
from array import array
from collections.abc import Hashable, Sequence

from repro.engine.cache import LRUCache
from repro.engine.version import instance_version
from repro.graphdb.graph import Graph, VertexId
from repro.graphdb.nfa import NFA, compile_regex
from repro.graphdb.regex import Regex

Word = tuple[str, ...]

#: One label's CSR slab: ``targets[indptr[i]:indptr[i+1]]`` are the dense
#: ids adjacent to vertex ``i`` under that label.
Csr = tuple["array[int]", "array[int]"]


def query_key(query: "Regex | NFA | object") -> Hashable:
    """Cache key for a path query.

    ``Regex`` nodes are frozen dataclasses and ``PathQuery`` hashes by
    canonical form, so equal queries share entries.  A raw ``NFA`` is its
    own key (identity hash): the cache then holds a strong reference to it,
    which keeps the identity stable for the life of the entry.
    """
    return query


def compile_query(query: "Regex | NFA | object") -> NFA:
    """Compile any supported query form to an NFA (no caching here)."""
    if isinstance(query, NFA):
        return query
    if isinstance(query, Regex):
        return compile_regex(query)
    to_nfa = getattr(query, "nfa", None)
    if callable(to_nfa):
        return to_nfa()
    raise TypeError(f"cannot compile {type(query).__name__} to an NFA")


def _build_csr(pairs: Sequence[tuple[int, int]], n: int) -> Csr:
    """CSR arrays from ``(src, dst)`` dense-id pairs over ``n`` vertices."""
    counts = [0] * (n + 1)
    for src, _ in pairs:
        counts[src + 1] += 1
    for i in range(n):
        counts[i + 1] += counts[i]
    indptr = array("l", counts)
    targets = array("l", [0]) * len(pairs)
    cursor = list(indptr[:n])
    for src, dst in pairs:
        targets[cursor[src]] = dst
        cursor[src] += 1
    return indptr, targets


class IndexedGraph:
    """One-time CSR adjacency snapshot over a graph, plus RPQ caches."""

    def __init__(self, graph: Graph, *,
                 reachable_cache: LRUCache | None = None,
                 nfa_cache: LRUCache | None = None) -> None:
        # Weak back-reference: see IndexedDocument — a strong ref would
        # pin the weakly-keyed engine map entry forever.
        self._graph = weakref.ref(graph)
        self.version: int = instance_version(graph)
        self.vertices: list[VertexId] = list(graph.vertices())
        n = len(self.vertices)
        vertex_ids: dict[VertexId, int] = {
            v: i for i, v in enumerate(self.vertices)
        }
        # ONE pass over the live adjacency captures every edge exactly
        # once (same snapshot-atomicity argument as IndexedDocument's
        # single traversal); everything below derives from this list.
        edges: dict[str, list[tuple[int, int]]] = {}
        for src_ix, v in enumerate(self.vertices):
            for label, dst in graph.out_edges(v):
                edges.setdefault(label, []).append((src_ix, vertex_ids[dst]))
        csr: dict[str, Csr] = {}
        rcsr: dict[str, Csr] = {}
        adj_bits: dict[str, list[int]] = {}
        for label, pairs in edges.items():
            csr[label] = _build_csr(pairs, n)
            rcsr[label] = _build_csr([(d, s) for s, d in pairs], n)
            rows = [0] * n
            for src_ix, dst_ix in pairs:
                rows[src_ix] |= 1 << dst_ix
            adj_bits[label] = rows
        self._vertex_ids = vertex_ids  # lock-free: immutable after __init__
        self._csr = csr        # lock-free: immutable CSR snapshot
        self._rcsr = rcsr      # lock-free: immutable CSR snapshot
        self._adj_bits = adj_bits  # lock-free: immutable bitset snapshot
        # Usually the Engine's shared compiled-NFA cache, so the same
        # query is compiled once per process, not once per graph.
        self._nfas = nfa_cache if nfa_cache is not None else LRUCache(256)
        # Like IndexedDocument's query cache: an engine passes a fresh
        # one that also counts every lookup into its engine-wide totals.
        self._reachable = reachable_cache if reachable_cache is not None \
            else LRUCache(1024)
        self._words = LRUCache(128)

    @property
    def graph(self) -> Graph:
        graph = self._graph()
        if graph is None:
            raise ReferenceError("the indexed graph has been collected")
        return graph

    # -- incremental reindexing ----------------------------------------
    #: Give up and rebuild above this many ops per patch window.
    MAX_PATCH_OPS = 16

    @classmethod
    def patched(cls, prev: "IndexedGraph", graph: Graph,
                ops: Sequence[dict], *,
                reachable_cache: LRUCache | None = None,
                nfa_cache: LRUCache | None = None,
                ) -> "IndexedGraph | None":
        """A fresh index over ``graph`` built from ``prev`` plus the
        edit-log ``ops``, or ``None`` when patching is not worthwhile
        (caller rebuilds).

        Only the labels an op touched get their CSR/bitset slabs
        rebuilt (from the live adjacency, which the ops window brought
        to the current version); every other label *shares* ``prev``'s
        immutable slabs by reference, extended with empty rows when
        vertices were added.  That skips the vertex-interning pass and
        all untouched per-label builds — the dominant rebuild cost when
        an edit touches one label of many.  Result caches start cold.

        ``remove_vertex`` cascades through every incident label, so it
        declines to the rebuild path rather than tracking per-label
        fallout.  ``prev`` is never written: its columns stay a
        consistent snapshot for concurrent readers.
        """
        if not ops or len(ops) > cls.MAX_PATCH_OPS:
            return None
        affected: set[str] = set()
        added: list[VertexId] = []
        known = prev._vertex_ids
        seen_new: set[int] = set()
        for op in ops:
            name = op.get("op")
            if name == "add_vertex":
                v = op["v"]
                if v not in known and id(v) not in seen_new \
                        and not any(v == a for a in added):
                    added.append(v)
                    seen_new.add(id(v))
            elif name in ("add_edge", "remove_edge"):
                affected.add(op["label"])
            else:  # remove_vertex, or an op kind we do not know
                return None
        vertices = prev.vertices + added if added else prev.vertices
        n = len(vertices)
        if added:
            vertex_ids = dict(prev._vertex_ids)
            for i, v in enumerate(added, len(prev.vertices)):
                vertex_ids[v] = i
        else:
            vertex_ids = prev._vertex_ids
        # Touched labels: re-derive their pairs from the live adjacency
        # in one pass over the edge set.  (If a concurrent mutation has
        # advanced the graph past this ops window, the version check in
        # the engine's build loop discards the result and rebuilds.)
        pairs_by_label: dict[str, list[tuple[int, int]]] = {
            label: [] for label in affected
        }
        for (src, label, dst) in list(graph.edge_keys()):
            if label in affected:
                s = vertex_ids.get(src)
                d = vertex_ids.get(dst)
                if s is None or d is None:
                    return None  # raced with an untracked mutation
                pairs_by_label[label].append((s, d))
        out = cls.__new__(cls)
        out._graph = weakref.ref(graph)
        # Versioned as prev + the ops applied, NOT the live graph's
        # version: a racing mutation fails the engine's version check
        # and triggers a rebuild with a wider window.
        out.version = prev.version + len(ops)
        out.vertices = vertices
        out._vertex_ids = vertex_ids
        csr: dict[str, Csr] = {}
        rcsr: dict[str, Csr] = {}
        adj_bits: dict[str, list[int]] = {}
        k = len(added)
        for label in prev._csr:
            if label in affected:
                continue
            if k == 0:
                csr[label] = prev._csr[label]
                rcsr[label] = prev._rcsr[label]
                adj_bits[label] = prev._adj_bits[label]
                continue
            indptr, targets = prev._csr[label]
            grown = array("l", indptr)
            grown.extend(indptr[-1:] * k)
            csr[label] = (grown, targets)
            rindptr, rtargets = prev._rcsr[label]
            rgrown = array("l", rindptr)
            rgrown.extend(rindptr[-1:] * k)
            rcsr[label] = (rgrown, rtargets)
            adj_bits[label] = prev._adj_bits[label] + [0] * k
        for label, pairs in pairs_by_label.items():
            if not pairs:
                continue  # label vanished; absent, like a rebuild
            csr[label] = _build_csr(pairs, n)
            rcsr[label] = _build_csr([(d, s) for s, d in pairs], n)
            rows = [0] * n
            for src_ix, dst_ix in pairs:
                rows[src_ix] |= 1 << dst_ix
            adj_bits[label] = rows
        out._csr = csr
        out._rcsr = rcsr
        out._adj_bits = adj_bits
        out._nfas = nfa_cache if nfa_cache is not None else LRUCache(256)
        out._reachable = reachable_cache if reachable_cache is not None \
            else LRUCache(1024)
        out._words = LRUCache(128)
        return out

    def in_edges(self, v: VertexId) -> list[tuple[str, VertexId]]:
        """Incoming ``(label, source)`` edges of ``v`` (reverse CSR).

        The seam for target-anchored evaluation: answering "which vertices
        reach ``v``?" runs the product BFS backwards over this snapshot.
        """
        try:
            ix = self._vertex_ids[v]
        except KeyError:
            from repro.errors import GraphError

            raise GraphError(f"unknown vertex {v!r}") from None
        vertices = self.vertices
        out: list[tuple[str, VertexId]] = []
        for label, (indptr, sources) in self._rcsr.items():
            for k in range(indptr[ix], indptr[ix + 1]):
                out.append((label, vertices[sources[k]]))
        return out

    # ------------------------------------------------------------------
    def nfa_for(self, query: "Regex | NFA | object") -> NFA:
        if isinstance(query, NFA):
            return query
        compiled: NFA = self._nfas.get_or_compute(
            query_key(query), lambda: compile_query(query))
        return compiled

    # ------------------------------------------------------------------
    # RPQ evaluation: the textbook product BFS, memoised per source —
    # lazily determinised (NFA state-sets interned to dense dstate ids)
    # and run over bitset frontiers: one int per dstate holds every
    # vertex reached at that automaton state, and a step is `|`/`&` over
    # the per-label adjacency bitset rows.
    # ------------------------------------------------------------------
    def _reachable_from(self, nfa: NFA, key: Hashable,
                        source: VertexId) -> frozenset[VertexId]:
        cached = self._reachable.get((key, source))
        if cached is not None:
            result: frozenset[VertexId] = cached
            return result
        src_ix = self._vertex_ids.get(source)
        if src_ix is None:
            from repro.errors import GraphError

            raise GraphError(f"unknown vertex {source!r}")
        adj_bits = self._adj_bits
        # Per-call determinisation tables (the per-(query, source) LRU
        # above amortises across calls; these amortise within one BFS).
        dstate_of: dict[frozenset[int], int] = {}
        dsets: list[frozenset[int]] = []
        accepting: list[bool] = []
        steps: list[dict[str, int]] = []
        visited: list[int] = []

        def intern(states: frozenset[int]) -> int:
            d = dstate_of.get(states)
            if d is None:
                d = len(dsets)
                dstate_of[states] = d
                dsets.append(states)
                accepting.append(nfa.is_accepting(states))
                steps.append({})
                visited.append(0)
            return d

        d0 = intern(nfa.initial())
        visited[d0] = 1 << src_ix
        target_bits = visited[d0] if accepting[d0] else 0
        frontier: dict[int, int] = {d0: visited[d0]}
        while frontier:
            next_frontier: dict[int, int] = {}
            for d, bits in frontier.items():
                row = steps[d]
                for label, rows in adj_bits.items():
                    nd = row.get(label)
                    if nd is None:
                        next_states = nfa.step(dsets[d], label)
                        nd = intern(next_states) if next_states else -1
                        row[label] = nd
                    if nd < 0:
                        continue
                    # Union the adjacency rows of every frontier vertex:
                    # peel set bits lowest-first with `b & -b`.
                    mask = 0
                    b = bits
                    while b:
                        low = b & -b
                        mask |= rows[low.bit_length() - 1]
                        b ^= low
                    new = mask & ~visited[nd]
                    if new:
                        visited[nd] |= new
                        if accepting[nd]:
                            target_bits |= new
                        next_frontier[nd] = next_frontier.get(nd, 0) | new
            frontier = next_frontier
        vertices = self.vertices
        targets: set[VertexId] = set()
        b = target_bits
        while b:
            low = b & -b
            targets.add(vertices[low.bit_length() - 1])
            b ^= low
        frozen = frozenset(targets)
        self._reachable.put((key, source), frozen)
        return frozen

    def evaluate_rpq(self, query: "Regex | NFA | object",
                     sources: Sequence[VertexId] | None = None,
                     ) -> set[tuple[VertexId, VertexId]]:
        """All ``(source, target)`` pairs linked by a query-matching path."""
        nfa = self.nfa_for(query)
        key = query_key(query)
        start_vertices = list(sources) if sources is not None \
            else self.vertices
        result: set[tuple[VertexId, VertexId]] = set()
        for source in start_vertices:
            for target in self._reachable_from(nfa, key, source):
                result.add((source, target))
        return result

    # ------------------------------------------------------------------
    def words_between(self, source: VertexId, target: VertexId, *,
                      max_length: int = 12,
                      limit: int | None = None) -> list[Word]:
        """Distinct simple-path label words, shortest first (memoised)."""
        from repro.graphdb.rpq import enumerate_words

        key = (source, target, max_length, limit)
        words: tuple[Word, ...] = self._words.get_or_compute(
            key, lambda: tuple(enumerate_words(self.graph, source, target,
                                               max_length=max_length,
                                               limit=limit)))
        return list(words)

    def __repr__(self) -> str:
        return (f"<IndexedGraph |V|={len(self.vertices)} "
                f"reach={self._reachable!r}>")
