"""Columnar evaluation core: the flat-array document index, the
CSR+bitset RPQ index, and the positions-native paths threaded through the
engine and batch evaluator must be answer-identical to the naive
reference evaluators — over generated instances, across mutation →
``invalidate()`` → rebuild, and across the content-digest boundary the
serving tier keys its caches on.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine, IndexedDocument, IndexedGraph
from repro.engine.version import instance_version
from repro.graphdb.graph import Graph
from repro.graphdb.regex import parse_regex
from repro.graphdb.rpq import evaluate_rpq_naive
from repro.serving.evaluator import BatchEvaluator
from repro.serving.wire import instance_fingerprint
from repro.serving.workload import Workload
from repro.twig.semantics import evaluate_naive
from repro.xmltree.tree import XTree

from .conftest import (
    random_graph_edits,
    random_tree_edits,
    twig_queries,
    xml,
    xnode_trees,
)

REGEXES = ("a", "a.b", "a+", "(a|b)*", "a.(b|c)?", "a*.b", "c?")


@st.composite
def small_graphs(draw) -> Graph:
    g = Graph()
    n = draw(st.integers(2, 6))
    for v in range(n):
        g.add_vertex(v)
    for _ in range(draw(st.integers(0, 12))):
        g.add_edge(draw(st.integers(0, n - 1)),
                   draw(st.sampled_from("abc")),
                   draw(st.integers(0, n - 1)))
    return g


# ---------------------------------------------------------------------------
# Columnar structure columns vs first-principles walks
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(xnode_trees(max_depth=4, max_children=3))
def test_columnar_columns_match_tree_walks(tree):
    doc = XTree(tree)
    index = IndexedDocument(doc)
    preorder = list(doc.nodes())
    assert index.nodes == preorder
    parents = doc._parent_map()
    n = len(preorder)
    for i, node in enumerate(preorder):
        p = parents[id(node)]
        assert index.parent[i] == (-1 if p is None else index.order_of(p))
        # depth = length of the parent chain
        expected_depth, cur = 0, p
        while cur is not None:
            expected_depth += 1
            cur = parents[id(cur)]
        assert index.depth[i] == expected_depth
        # last_descendant = highest pre-order position inside the subtree
        subtree_ids = {id(x) for x in node.iter()}
        expected_last = max(j for j, m in enumerate(preorder)
                            if id(m) in subtree_ids)
        assert index.last_descendant[i] == expected_last
    labels = {node.label for node in preorder}
    for label in labels:
        positions = list(index.candidates(label))
        assert positions == sorted(positions)
        assert positions == [i for i in range(n)
                             if preorder[i].label == label]
    assert list(index.candidates("*")) == list(range(n))
    assert list(index.candidates("no-such-label")) == []


@settings(max_examples=100, deadline=None)
@given(xnode_trees(max_depth=4, max_children=3), twig_queries(max_depth=3))
def test_positions_native_twig_matches_naive(tree, query):
    doc = XTree(tree)
    engine = Engine()
    order = {id(n): i for i, n in enumerate(doc.nodes())}
    naive_positions = tuple(order[id(n)] for n in evaluate_naive(query, doc))
    assert engine.evaluate_twig_positions(query, doc) == naive_positions
    # The boundary materialisation agrees with the positions.
    assert tuple(order[id(n)]
                 for n in engine.evaluate_twig(query, doc)) \
        == naive_positions


@settings(max_examples=60, deadline=None)
@given(xnode_trees(max_depth=4, max_children=3), twig_queries(max_depth=3))
def test_selects_matches_naive_identity_semantics(tree, query):
    doc = XTree(tree)
    engine = Engine()
    selected = {id(n) for n in evaluate_naive(query, doc)}
    for node in doc.nodes():
        assert engine.selects(query, doc, node) == (id(node) in selected)
    # A node from a different document is never selected.
    foreign = xml("<a><b/></a>")
    assert engine.selects(query, doc, foreign.root) is False


# ---------------------------------------------------------------------------
# CSR + bitset RPQ vs the naive product BFS
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(small_graphs(), st.sampled_from(REGEXES))
def test_bitset_rpq_matches_naive(graph, regex_text):
    query = parse_regex(regex_text)
    engine = Engine()
    expected = evaluate_rpq_naive(query, graph)
    assert engine.evaluate_rpq(query, graph) == expected
    assert engine.evaluate_rpq(query, graph) == expected  # memo hit


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_csr_reverse_adjacency_matches_forward_edges(graph):
    index = IndexedGraph(graph)
    forward = [(src, label, dst)
               for src in graph.vertices()
               for label, dst in graph.out_edges(src)]
    backward = [(src, label, dst)
                for dst in graph.vertices()
                for label, src in index.in_edges(dst)]
    assert sorted(forward) == sorted(backward)


# ---------------------------------------------------------------------------
# Mutation -> invalidate() -> rebuild coherence
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(xnode_trees(max_depth=4, max_children=3), twig_queries(max_depth=3),
       st.integers(0, 7))
def test_tree_mutation_invalidate_rebuild_coherence(tree, query, seed):
    doc = XTree(tree)
    engine = Engine()
    engine.evaluate_twig(query, doc)  # warm (soon-stale) columnar index
    nodes = list(doc.nodes())
    grafted = nodes[seed % len(nodes)].copy()
    doc.root.add(grafted)
    doc.invalidate()
    order = {id(n): i for i, n in enumerate(doc.nodes())}
    expected = tuple(order[id(n)] for n in evaluate_naive(query, doc))
    assert engine.evaluate_twig_positions(query, doc) == expected
    # The rebuilt columns describe the mutated structure.
    index = engine.document(doc)
    assert len(index.nodes) == len(order)
    assert index.version == getattr(doc, "_version", 0)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.sampled_from(REGEXES), st.integers(0, 5),
       st.integers(0, 5))
def test_graph_mutation_rebuild_coherence(graph, regex_text, src, dst):
    query = parse_regex(regex_text)
    engine = Engine()
    engine.evaluate_rpq(query, graph)  # warm (soon-stale) CSR index
    n = len(list(graph.vertices()))
    graph.add_edge(src % n, "a", dst % n)  # mutator bumps the version
    assert engine.evaluate_rpq(query, graph) == \
        evaluate_rpq_naive(query, graph)


# ---------------------------------------------------------------------------
# Incremental reindexing: patched columns == cold rebuild
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(xnode_trees(max_depth=4, max_children=3),
       st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_patched_document_index_equals_cold_rebuild(tree, seed, count):
    doc = XTree(tree)
    prev = IndexedDocument(doc)
    prev_columns = (list(prev.parent), list(prev.depth),
                    list(prev.last_descendant), list(prev.label_ids))
    v0 = instance_version(doc)
    random_tree_edits(doc, random.Random(seed), count)
    patched = IndexedDocument.patched(prev, doc, doc.edits_since(v0))
    fresh = IndexedDocument(doc)
    if patched is None:
        return  # over budget: declining to the rebuild is the contract
    # Column-for-column identical to rebuilding from scratch.
    assert patched.nodes == fresh.nodes  # same node objects, same order
    assert list(patched.parent) == list(fresh.parent)
    assert list(patched.depth) == list(fresh.depth)
    assert list(patched.last_descendant) == list(fresh.last_descendant)
    for label in {n.label for n in fresh.nodes} | {"*", "absent"}:
        assert list(patched.candidates(label)) \
            == list(fresh.candidates(label))
    assert patched.version == instance_version(doc)
    # ...and prev's columns were never written (immutable snapshot).
    assert prev_columns == (list(prev.parent), list(prev.depth),
                            list(prev.last_descendant),
                            list(prev.label_ids))


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.sampled_from(REGEXES),
       st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_patched_graph_index_equals_cold_rebuild(graph, regex_text,
                                                 seed, count):
    prev = IndexedGraph(graph)
    v0 = instance_version(graph)
    random_graph_edits(graph, random.Random(seed), count,
                       remove_vertices=False)
    patched = IndexedGraph.patched(prev, graph, graph.edits_since(v0))
    fresh = IndexedGraph(graph)
    if patched is None:
        return
    # Semantic equality (CSR row order may differ from a rebuild).
    assert set(patched.vertices) == set(fresh.vertices)
    for v in graph.vertices():
        assert sorted(patched.in_edges(v)) == sorted(fresh.in_edges(v))
    query = parse_regex(regex_text)
    assert patched.evaluate_rpq(query) == fresh.evaluate_rpq(query)
    assert patched.evaluate_rpq(query) == evaluate_rpq_naive(query, graph)


@settings(max_examples=40, deadline=None)
@given(xnode_trees(max_depth=4, max_children=3), twig_queries(max_depth=3),
       st.integers(0, 2**32 - 1))
def test_engine_serves_patched_index_for_tracked_edits(tree, query, seed):
    """The engine seam: a small tracked edit is absorbed by an index
    patch (counted), and the answers still match the naive evaluator."""
    doc = XTree(tree)
    engine = Engine()
    engine.evaluate_twig(query, doc)  # warm index at the old version
    random_tree_edits(doc, random.Random(seed), 1)
    before = engine.stats()["document_patches"]
    order = {id(n): i for i, n in enumerate(doc.nodes())}
    expected = tuple(order[id(n)] for n in evaluate_naive(query, doc))
    assert engine.evaluate_twig_positions(query, doc) == expected
    assert engine.stats()["document_patches"] == before + 1


# ---------------------------------------------------------------------------
# Cross-version content digests
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(xnode_trees(max_depth=4, max_children=3))
def test_tree_digest_tracks_versions_not_identity(tree):
    doc = XTree(tree)
    digest_before, _ = instance_fingerprint(doc)
    # Stable across repeated fingerprints of the same version.
    assert instance_fingerprint(doc)[0] == digest_before
    # Equal content in a distinct object hashes identically.
    twin = XTree(tree.copy())
    assert instance_fingerprint(twin)[0] == digest_before
    # A structural mutation (new version) moves the digest...
    doc.root.add(doc.root.copy())
    doc.invalidate()
    digest_after, _ = instance_fingerprint(doc)
    assert digest_after != digest_before
    # ...and the twin still addresses the pre-mutation content.
    assert instance_fingerprint(twin)[0] == digest_before


def test_graph_digest_tracks_versions_not_identity():
    def geo():
        g = Graph()
        g.add_edge(0, "road", 1)
        g.add_edge(1, "rail", 2)
        return g

    g1, g2 = geo(), geo()
    digest, _ = instance_fingerprint(g1)
    assert instance_fingerprint(g2)[0] == digest
    g1.add_edge(2, "road", 0)
    assert instance_fingerprint(g1)[0] != digest
    assert instance_fingerprint(g2)[0] == digest


# ---------------------------------------------------------------------------
# Positions-native batch plans
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(xnode_trees(max_depth=4, max_children=3), twig_queries(max_depth=3))
def test_positions_native_stream_matches_node_stream(tree, query):
    doc = XTree(tree)
    engine = Engine()
    evaluator = BatchEvaluator(engine=engine)
    workload = Workload.twig(query, [doc])
    [materialised] = evaluator.run(workload).answers
    answers = [a for s in evaluator.run_stream(workload,
                                               positions_native=True)
               for _, a in s]
    preorder = engine.preorder_nodes(doc)
    assert [[preorder[p] for p in positions] for positions in answers] \
        == [materialised]
