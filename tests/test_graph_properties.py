"""Cross-checks between the RPQ evaluator and path enumeration, the
pruned enumeration against the exhaustive one, plus schema-membership
properties under document mutation."""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphdb.geo import make_geo_graph
from repro.graphdb.graph import Graph
from repro.graphdb.nfa import compile_regex
from repro.graphdb.regex import parse_regex
from repro.graphdb.rpq import enumerate_paths, enumerate_words, evaluate_rpq
from repro.schema.corpus import library_schema
from repro.schema.generation import generate_valid_tree

ALPHABET = ("x", "y")


@st.composite
def small_graphs(draw, max_nodes=5, max_edges=8):
    n = draw(st.integers(2, max_nodes))
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    n_edges = draw(st.integers(1, max_edges))
    for _ in range(n_edges):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1))
        label = draw(st.sampled_from(ALPHABET))
        if src != dst:
            g.add_edge(src, label, dst)
    return g


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.sampled_from([
    "x", "x.y", "x*", "(x|y)+", "x.(x|y)*", "y.y",
]))
def test_rpq_agrees_with_path_enumeration(graph, regex_text):
    """Pairs found by the product construction == pairs with a witness
    path (up to the enumeration length bound, restricted to simple paths
    — so enumeration may only miss, never add)."""
    regex = parse_regex(regex_text)
    nfa = compile_regex(regex)
    rpq_pairs = evaluate_rpq(regex, graph)
    for source in graph.vertices():
        for target in graph.vertices():
            if source == target:
                continue  # empty-word pairs have no enumerated witness
            witnessed = any(
                nfa.accepts(word)
                for _, word in enumerate_paths(graph, source, target,
                                               max_length=4)
            )
            if witnessed:
                assert (source, target) in rpq_pairs


# ---------------------------------------------------------------------------
# The pruned enumeration against the exhaustive breadth-first search
# ---------------------------------------------------------------------------


def exhaustive_paths(graph, source, target, *, max_length=12):
    """Every simple path from ``source``, breadth first, yielding those
    that end at ``target``: the unpruned reference search."""
    queue = deque([((source,), ())])
    while queue:
        path, word = queue.popleft()
        current = path[-1]
        if current == target and word:
            yield path, word
            # keep exploring: longer paths to the same target still count
        if len(word) >= max_length:
            continue
        for label, neighbour in sorted(graph.out_edges(current),
                                       key=lambda e: (str(e[0]), str(e[1]))):
            if neighbour in path:
                continue
            queue.append((path + (neighbour,), word + (label,)))


def first_distinct_words(paths, limit):
    out = []
    for _, word in paths:
        if word not in out:
            out.append(word)
            if limit is not None and len(out) >= limit:
                break
    return out


def outcome(paths):
    """The list of paths, or the type of the error the search raised."""
    try:
        return list(paths)
    except GraphError as exc:
        return type(exc)


@st.composite
def labelled_graphs(draw):
    """Small graphs with a cycle through every vertex but the last, more
    edges (self-loops included), parallel edges under different labels,
    and the last vertex isolated."""
    n = draw(st.integers(2, 5))
    g = Graph()
    for v in range(n + 1):
        g.add_vertex(v)
    for v in range(n):
        g.add_edge(v, draw(st.sampled_from("abc")), (v + 1) % n)
    for _ in range(draw(st.integers(0, 8))):
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        labels = draw(st.sets(st.sampled_from("abc"), min_size=1))
        for label in sorted(labels):
            g.add_edge(src, label, dst)
    return g


@settings(max_examples=60, deadline=None)
@given(labelled_graphs())
def test_pruned_enumeration_equals_exhaustive_search(graph):
    """Every source/target pair, the same vertex twice, an unknown vertex
    at either end, and every length bound up to 5: the same paths in the
    same order (or the same error), and the same first distinct words."""
    vertices = list(graph.vertices()) + ["missing"]
    for source in vertices:
        for target in vertices:
            for max_length in range(6):
                expected = outcome(exhaustive_paths(
                    graph, source, target, max_length=max_length))
                assert outcome(enumerate_paths(
                    graph, source, target, max_length=max_length)) \
                    == expected
                if not isinstance(expected, list):
                    continue
                for limit in (1, 2, None):
                    assert enumerate_words(graph, source, target,
                                           max_length=max_length,
                                           limit=limit) \
                        == first_distinct_words(expected, limit)


# The perfbench local graph's topology and its four endpoint pairs.
GEO_ENDPOINTS = (("city_0_0", "city_6_0"), ("city_0_0", "city_4_4"),
                 ("city_1_0", "city_6_4"), ("city_0_2", "city_6_2"))


@pytest.mark.parametrize("source,target", GEO_ENDPOINTS)
def test_pruned_enumeration_on_the_geo_graph(source, target):
    graph = make_geo_graph(rng=2, width=8, height=6, train_probability=0.3)
    expected = list(exhaustive_paths(graph, source, target, max_length=8))
    assert list(enumerate_paths(graph, source, target,
                                max_length=8)) == expected
    assert enumerate_words(graph, source, target, max_length=8,
                           limit=200) == first_distinct_words(expected, 200)


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_rpq_star_is_reflexive(graph):
    pairs = evaluate_rpq(parse_regex("x*"), graph)
    for v in graph.vertices():
        assert (v, v) in pairs


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_schema_membership_mutation(seed):
    """A valid document stays valid under order shuffles (unordered
    semantics) and usually breaks under label corruption."""
    rng = random.Random(seed)
    schema = library_schema()
    doc = generate_valid_tree(schema, rng=rng.randrange(10 ** 9),
                              max_depth=6, growth=0.7)
    assert schema.accepts(doc)

    # Shuffling sibling order never invalidates.
    shuffled = doc.copy()
    for n in shuffled.nodes():
        rng.shuffle(n.children)
    assert schema.accepts(shuffled)

    # Renaming a node to a label unknown to the schema always invalidates.
    corrupted = doc.copy()
    nodes = list(corrupted.nodes())
    victim = rng.choice(nodes)
    victim.label = "__alien__"
    assert not schema.accepts(corrupted)
