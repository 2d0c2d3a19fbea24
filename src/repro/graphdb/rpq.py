"""Regular path query evaluation: the NFA x graph product construction.

``evaluate_rpq`` computes all vertex pairs ``(u, v)`` connected by a path
whose edge-label word belongs to the query language — BFS over the product
of the graph with the query NFA, the textbook RPQ algorithm (polynomial in
``|G| * |A|``).  ``find_paths`` additionally reconstructs witness paths,
and ``enumerate_words``/``enumerate_paths`` stream candidate paths between
two endpoints in length order — the proposal pool of the interactive graph
learner.

The enumeration explores only partial paths that can still reach the
target: one reverse BFS gives every vertex's fewest edges to the target,
a path is extended only to a vertex whose distance fits the remaining
length, and a path that reaches the target is not extended.  Each pruned
subtree of the breadth-first search holds no path it would yield, so the
stream is element-for-element the exhaustive search's (the argument is
in ``enumerate_paths``).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from repro.graphdb.graph import Graph, VertexId
from repro.graphdb.nfa import NFA, compile_regex
from repro.graphdb.regex import Regex

Path = tuple[VertexId, ...]
Word = tuple[str, ...]


def _as_nfa(query: Regex | NFA) -> NFA:
    return query if isinstance(query, NFA) else compile_regex(query)


def evaluate_rpq(query: Regex | NFA, graph: Graph,
                 sources: list[VertexId] | None = None,
                 ) -> set[tuple[VertexId, VertexId]]:
    """All ``(source, target)`` pairs linked by a query-matching path.

    Served by the shared engine: the graph's adjacency is indexed once,
    the query NFA is compiled once, and per-source reachability is
    memoised across the repeated calls interactive learners make.  Graph
    mutators bump the graph's version, so the engine reindexes a mutated
    graph transparently on the next call.
    """
    from repro.engine.core import get_engine

    return get_engine().evaluate_rpq(query, graph, sources)


def evaluate_rpq_naive(query: Regex | NFA, graph: Graph,
                       sources: list[VertexId] | None = None,
                       ) -> set[tuple[VertexId, VertexId]]:
    """Single-shot product BFS, no caching (the reference path)."""
    nfa = _as_nfa(query)
    result: set[tuple[VertexId, VertexId]] = set()
    start_vertices = list(sources) if sources is not None \
        else list(graph.vertices())
    for source in start_vertices:
        initial = (source, nfa.initial())
        seen = {initial}
        queue = deque([initial])
        while queue:
            vertex, states = queue.popleft()
            if nfa.is_accepting(states):
                result.add((source, vertex))
            for label, neighbour in graph.out_edges(vertex):
                next_states = nfa.step(states, label)
                if not next_states:
                    continue
                item = (neighbour, next_states)
                if item not in seen:
                    seen.add(item)
                    queue.append(item)
    return result


def find_paths(query: Regex | NFA, graph: Graph, source: VertexId,
               target: VertexId, *, max_paths: int = 10,
               max_length: int = 12) -> list[tuple[Path, Word]]:
    """Witness paths from ``source`` to ``target`` matching the query.

    Paths are simple (no repeated vertex) and streamed in length order up
    to ``max_length`` edges / ``max_paths`` results (none when
    ``max_paths <= 0``).
    """
    if max_paths <= 0:
        return []
    nfa = _as_nfa(query)
    out: list[tuple[Path, Word]] = []
    for path, word in enumerate_paths(graph, source, target,
                                      max_length=max_length):
        if nfa.accepts(word):
            out.append((path, word))
            if len(out) >= max_paths:
                break
    return out


def enumerate_paths(graph: Graph, source: VertexId, target: VertexId,
                    *, max_length: int = 12,
                    ) -> Iterator[tuple[Path, Word]]:
    """All simple paths ``source -> target``, shortest (fewest edges) first.

    Yields ``(vertex_path, label_word)`` pairs; parallel edge labels yield
    one path per label word.  Paths of equal length come in the order of
    a breadth-first search that expands each vertex's out-edges sorted by
    ``(str(label), str(neighbour))``.

    Only partial paths that can still reach the target are expanded.  One
    reverse BFS finds each vertex's fewest edges to ``target`` (a lower
    bound for simple paths, which may need more), and a path of ``k``
    edges is extended to ``v`` only when ``k + 1 + dist[v] <= max_length``.
    A path that reaches ``target`` is yielded and not extended, because a
    simple path cannot return to a vertex it holds.  Either way the
    subtree left out of the search tree holds no path that would be
    yielded.  Breadth-first order visits a tree level by level, each
    level ordered by its parents' order and then by edge order, so
    removing subtrees keeps the relative order of every remaining path:
    the yielded sequence is exactly that of the exhaustive search, and so
    is any prefix a caller cuts from it.  An unknown ``target`` yields
    nothing; an unknown ``source`` raises :class:`GraphError` when it is
    first expanded.
    """
    # A simple path cannot come back to its first vertex.
    dist = {} if source == target else _hops_to(graph, target, max_length)
    sorted_edges: dict[VertexId, list[tuple[str, VertexId]]] = {}
    queue: deque[tuple[Path, Word]] = deque([((source,), ())])
    while queue:
        path, word = queue.popleft()
        current = path[-1]
        if current == target and word:
            yield path, word
            continue
        budget = max_length - len(word) - 1
        if budget < 0:
            continue
        edges = sorted_edges.get(current)
        if edges is None:
            edges = sorted_edges[current] = sorted(
                graph.out_edges(current),
                key=lambda e: (str(e[0]), str(e[1])))
        for label, neighbour in edges:
            hops = dist.get(neighbour)
            if hops is None or hops > budget or neighbour in path:
                continue
            queue.append((path + (neighbour,), word + (label,)))


def _hops_to(graph: Graph, target: VertexId,
             max_length: int) -> dict[VertexId, int]:
    """Fewest edges from each vertex to ``target``, up to ``max_length``
    (reverse BFS; vertices farther away, and every vertex of a graph
    without ``target``, are absent)."""
    if not graph.has_vertex(target):
        return {}
    dist = {target: 0}
    frontier = [target]
    for hops in range(1, max_length + 1):
        nxt = []
        for v in frontier:
            for u in graph.in_neighbours(v):
                if u not in dist:
                    dist[u] = hops
                    nxt.append(u)
        frontier = nxt
    return dist


def enumerate_words(graph: Graph, source: VertexId, target: VertexId,
                    *, max_length: int = 12, limit: int | None = None,
                    ) -> list[Word]:
    """Distinct label words of simple ``source -> target`` paths, at most
    ``limit`` of them (none when ``limit <= 0``)."""
    if limit is not None and limit <= 0:
        return []
    seen: set[Word] = set()
    out: list[Word] = []
    for _, word in enumerate_paths(graph, source, target,
                                   max_length=max_length):
        if word not in seen:
            seen.add(word)
            out.append(word)
            if limit is not None and len(out) >= limit:
                break
    return out
