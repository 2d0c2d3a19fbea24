"""A minimal RDF triple store with basic graph pattern matching.

The paper positions RDF as the concrete graph data model (and SPARQL as
its — too expressive — query language).  The store keeps ``(subject,
predicate, object)`` triples with the three standard indexes and answers
*basic graph patterns* (conjunctions of triple patterns with variables,
the SPARQL core) by backtracking join, plus conversion to/from
:class:`~repro.graphdb.graph.Graph`.

Variables are strings starting with ``?``.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator

from repro.graphdb.graph import Graph

Triple = tuple[object, str, object]
Binding = dict[str, object]


def _is_var(term: object) -> bool:
    return isinstance(term, str) and term.startswith("?")


class TripleStore:
    """An indexed set of RDF triples."""

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        self._triples: set[Triple] = set()
        self._spo: dict[object, dict[str, set[object]]] = defaultdict(
            lambda: defaultdict(set))
        self._pos: dict[str, dict[object, set[object]]] = defaultdict(
            lambda: defaultdict(set))
        self._osp: dict[object, dict[object, set[str]]] = defaultdict(
            lambda: defaultdict(set))
        for t in triples:
            self.add(*t)

    def add(self, subject: object, predicate: str, obj: object) -> None:
        triple = (subject, predicate, obj)
        if triple in self._triples:
            return
        self._triples.add(triple)
        self._spo[subject][predicate].add(obj)
        self._pos[predicate][obj].add(subject)
        self._osp[obj][subject].add(predicate)

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def predicates(self) -> frozenset[str]:
        return frozenset(self._pos)

    # ------------------------------------------------------------------
    def match_pattern(self, subject: object, predicate: object,
                      obj: object) -> Iterator[Triple]:
        """All triples matching one pattern (variables = wildcards here)."""
        s_fixed = not _is_var(subject)
        p_fixed = not _is_var(predicate)
        o_fixed = not _is_var(obj)
        if s_fixed and p_fixed and o_fixed:
            if (subject, predicate, obj) in self._triples:
                yield (subject, predicate, obj)
            return
        if s_fixed:
            preds = ([predicate] if p_fixed
                     else list(self._spo.get(subject, ())))
            for p in preds:
                for o in self._spo.get(subject, {}).get(p, ()):
                    if not o_fixed or o == obj:
                        yield (subject, p, o)
            return
        if p_fixed:
            objects = ([obj] if o_fixed
                       else list(self._pos.get(predicate, ())))
            for o in objects:
                for s in self._pos.get(predicate, {}).get(o, ()):
                    yield (s, predicate, o)
            return
        if o_fixed:
            for s, preds in self._osp.get(obj, {}).items():
                for p in preds:
                    yield (s, p, obj)
            return
        yield from self._triples

    def query(self, patterns: list[Triple]) -> list[Binding]:
        """Answer a basic graph pattern by backtracking join.

        Returns one binding dict per solution, mapping ``?var`` names to
        values.  Most-selective-first pattern ordering keeps typical
        queries fast.
        """

        def selectivity(pattern: Triple) -> int:
            return sum(0 if _is_var(t) else 1 for t in pattern)

        ordered = sorted(patterns, key=selectivity, reverse=True)
        solutions: list[Binding] = []
        _solve(self, ordered, 0, {}, solutions)
        return solutions

    # ------------------------------------------------------------------
    def to_graph(self) -> Graph:
        """View the store as an edge-labelled graph.

        Entities are subjects plus everything declared with a
        ``(v, "type", "vertex")`` marker (as written by
        :func:`graph_to_triples`); triples between entities become edges,
        triples to other values become vertex properties, and the type
        markers themselves are dropped.
        """
        graph = Graph()
        entities = {s for s, _, _ in self._triples}
        entities |= {s for s, p, o in self._triples
                     if p == "type" and o == "vertex"}
        for s, p, o in sorted(self._triples, key=repr):
            if p == "type" and o == "vertex":
                graph.add_vertex(s)
            elif o in entities:
                graph.add_edge(s, p, o)
            else:
                graph.add_vertex(s, **{p: o})
        return graph


def _substitute(term: object, binding: Binding) -> object:
    if _is_var(term) and term in binding:
        return binding[term]
    return term


def _solve(store: TripleStore, ordered: list[Triple], idx: int,
           binding: Binding, solutions: list[Binding]) -> None:
    """Extend ``binding`` over ``ordered[idx:]`` into ``solutions``."""
    # Module-level with its state as arguments: a recursive inner
    # function would close over itself and keep the solutions in a
    # reference cycle until the cyclic collector runs.
    if idx == len(ordered):
        solutions.append(dict(binding))
        return
    s, p, o = (_substitute(t, binding) for t in ordered[idx])
    for ts, tp, to in store.match_pattern(s, p, o):
        new_binding = dict(binding)
        conflict = False
        for term, value in ((s, ts), (p, tp), (o, to)):
            if _is_var(term):
                if new_binding.get(term, value) != value:
                    conflict = True
                    break
                new_binding[term] = value
        if not conflict:
            _solve(store, ordered, idx + 1, new_binding, solutions)


def graph_to_triples(graph: Graph) -> TripleStore:
    """Encode a property graph as RDF triples.

    Every vertex gets a ``(v, "type", "vertex")`` marker (so sink vertices
    survive the roundtrip); edges become ``(src, label, dst)``; vertex
    properties become ``(vertex, property, value)``; edge properties become
    reified triples ``(src -label-> dst, property, value)`` keyed by a
    stable string id.
    """
    store = TripleStore()
    for v in graph.vertices():
        store.add(v, "type", "vertex")
        for key, value in graph.vertex_properties(v).items():
            store.add(v, key, value)
    for edge in graph.edges():
        store.add(edge.src, edge.label, edge.dst)
        if edge.properties:
            edge_id = f"edge:{edge.src}:{edge.label}:{edge.dst}"
            for key, value in edge.properties.items():
                store.add(edge_id, key, value)
    return store
