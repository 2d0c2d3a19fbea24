"""The evaluation engine: indexed evaluation must be answer-identical to
the naive reference paths, and caching must be invisible except for speed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine, IndexedDocument, LRUCache, get_engine
from repro.graphdb.graph import Graph
from repro.graphdb.pathquery import PathQuery
from repro.graphdb.regex import parse_regex
from repro.graphdb.rpq import evaluate_rpq, evaluate_rpq_naive
from repro.twig.generator import canonical_query_for_node
from repro.twig.parse import parse_twig
from repro.twig.semantics import evaluate, evaluate_naive
from repro.twig.union import UnionTwigQuery
from repro.xmltree.tree import XNode, XTree

from .conftest import twig_queries, xml, xnode_trees


# ---------------------------------------------------------------------------
# LRUCache
# ---------------------------------------------------------------------------


def test_lru_cache_eviction_order():
    cache = LRUCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes "a"
    cache.put("c", 3)  # evicts "b", the coldest
    assert "b" not in cache
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert cache.stats()["size"] == 2


def test_lru_cache_counts_hits_and_misses():
    cache = LRUCache(maxsize=4)
    assert cache.get("missing") is None
    cache.put("k", "v")
    assert cache.get("k") == "v"
    assert cache.hits == 1 and cache.misses == 1


# ---------------------------------------------------------------------------
# Indexed twig evaluation vs the naive path
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(xnode_trees(max_depth=4, max_children=3), twig_queries(max_depth=3))
def test_engine_matches_naive_evaluate(tree, query):
    doc = XTree(tree)
    engine = Engine()
    indexed = [id(n) for n in engine.evaluate_twig(query, doc)]
    naive = [id(n) for n in evaluate_naive(query, doc)]
    assert indexed == naive  # same nodes, same document order


@settings(max_examples=60, deadline=None)
@given(xnode_trees(max_depth=4, max_children=3), twig_queries(max_depth=3))
def test_cache_hits_return_same_objects_in_document_order(tree, query):
    doc = XTree(tree)
    engine = Engine()
    first = engine.evaluate_twig(query, doc)
    second = engine.evaluate_twig(query, doc)
    assert len(first) == len(second)
    assert all(a is b for a, b in zip(first, second))
    order = {id(n): i for i, n in enumerate(doc.nodes())}
    positions = [order[id(n)] for n in second]
    assert positions == sorted(positions)


@settings(max_examples=60, deadline=None)
@given(xnode_trees(max_depth=4, max_children=3), twig_queries(max_depth=2),
       twig_queries(max_depth=2))
def test_union_evaluation_matches_disjunct_union(tree, q1, q2):
    doc = XTree(tree)
    union = UnionTwigQuery([q1, q2])
    expected_ids = {id(n) for n in evaluate_naive(q1, doc)} \
        | {id(n) for n in evaluate_naive(q2, doc)}
    answers = union.evaluate(doc)
    assert {id(n) for n in answers} == expected_ids
    order = {id(n): i for i, n in enumerate(doc.nodes())}
    positions = [order[id(n)] for n in answers]
    assert positions == sorted(positions)


@settings(max_examples=80, deadline=None)
@given(xnode_trees(max_depth=4, max_children=3))
def test_interval_index_matches_parent_walks(tree):
    doc = XTree(tree)
    index = IndexedDocument(doc)
    parents = doc._parent_map()
    for i, n in enumerate(index.nodes):
        chain = set()
        cur = parents[id(n)]
        while cur is not None:
            chain.add(index.order_of(cur))
            cur = parents[id(cur)]
        for j in range(len(index.nodes)):
            assert index.is_ancestor(j, i) == (j in chain)


@settings(max_examples=40, deadline=None)
@given(xnode_trees(max_depth=4, max_children=3),
       st.sampled_from(("insert", "relabel")), st.data())
def test_canonical_queries_are_shared_views_of_one_pattern(tree, edit, data):
    doc = XTree(tree)
    engine = Engine()
    nodes = list(doc.nodes())
    views = [engine.canonical_query(doc, n) for n in nodes]
    for node, view in zip(nodes, views):
        assert view == canonical_query_for_node(doc, node)
    # One pattern per document, one view per node, handed out as is.
    assert len({id(view.root) for view in views}) == 1
    for node, view in zip(nodes, views):
        assert engine.canonical_query(doc, node) is view
    forms = [view.canonical() for view in views]
    target = data.draw(st.sampled_from(nodes))
    if edit == "insert":
        doc.insert_subtree(target, XNode("edited"))
    else:
        doc.relabel_node(target, label="edited")
    fresh = [engine.canonical_query(doc, n) for n in doc.nodes()]
    for node, view in zip(doc.nodes(), fresh):
        assert view == canonical_query_for_node(doc, node)
    assert "edited" in {n.label for n in fresh[0].nodes()}
    assert [view.canonical() for view in views] == forms


def test_evaluate_wrapper_uses_shared_engine():
    doc = xml("<a><b><c/></b><b/></a>")
    query = parse_twig("/a/b")
    before = get_engine().document(doc).cache_stats()["hits"]
    evaluate(query, doc)
    evaluate(query, doc)
    after = get_engine().document(doc).cache_stats()["hits"]
    assert after > before


# ---------------------------------------------------------------------------
# Indexed RPQ evaluation vs the naive path
# ---------------------------------------------------------------------------

REGEXES = ("a", "a.b", "a+", "(a|b)*", "a.(b|c)?", "a*.b")


@st.composite
def small_graphs(draw) -> Graph:
    g = Graph()
    n = draw(st.integers(2, 6))
    for v in range(n):
        g.add_vertex(v)
    for _ in range(draw(st.integers(0, 12))):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1))
        label = draw(st.sampled_from("abc"))
        g.add_edge(src, label, dst)
    return g


@settings(max_examples=100, deadline=None)
@given(small_graphs(), st.sampled_from(REGEXES))
def test_engine_matches_naive_rpq(graph, regex_text):
    query = parse_regex(regex_text)
    engine = Engine()
    assert engine.evaluate_rpq(query, graph) == \
        evaluate_rpq_naive(query, graph)
    # Second call is served from the per-source memo — same answer.
    assert engine.evaluate_rpq(query, graph) == \
        evaluate_rpq_naive(query, graph)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.sampled_from(REGEXES),
       st.integers(0, 5))
def test_engine_rpq_with_sources_subset(graph, regex_text, source):
    if not graph.has_vertex(source):
        return
    query = parse_regex(regex_text)
    engine = Engine()
    assert engine.evaluate_rpq(query, graph, sources=[source]) == \
        evaluate_rpq_naive(query, graph, sources=[source])


def test_module_level_rpq_wrapper_matches_naive():
    g = Graph()
    g.add_edge("x", "road", "y")
    g.add_edge("y", "road", "z")
    g.add_edge("x", "rail", "z")
    query = parse_regex("road+")
    assert evaluate_rpq(query, g) == evaluate_rpq_naive(query, g)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("ab"), max_size=4))
def test_engine_word_acceptance_matches_pathquery(word):
    engine = Engine()
    query = PathQuery.parse("a+.b?")
    expected = query.accepts(tuple(word))
    assert engine.accepts(query, tuple(word)) == expected
    assert engine.accepts(query, tuple(word)) == expected  # memo hit


# ---------------------------------------------------------------------------
# Invalidation
# ---------------------------------------------------------------------------


def test_invalidate_drops_stale_document_index():
    engine = Engine()
    doc = xml("<a><b/></a>")
    query = parse_twig("/a/b")
    assert len(engine.evaluate_twig(query, doc)) == 1
    doc.root.add(doc.root.children[0].copy())
    doc.invalidate()
    engine.invalidate(doc)
    assert len(engine.evaluate_twig(query, doc)) == 2


def test_tree_invalidate_alone_reindexes():
    # The pre-existing mutation contract (XTree.invalidate) is enough —
    # no engine-specific call needed.
    engine = Engine()
    doc = xml("<a><b/></a>")
    query = parse_twig("//b")
    assert len(engine.evaluate_twig(query, doc)) == 1
    doc.root.add(doc.root.children[0].copy())
    doc.invalidate()
    assert len(engine.evaluate_twig(query, doc)) == 2


def test_graph_mutation_alone_reindexes():
    # Graph mutators bump the version; the next call sees fresh edges.
    engine = Engine()
    g = Graph()
    g.add_edge("x", "a", "y")
    query = parse_regex("a.a")
    assert engine.evaluate_rpq(query, g) == set()
    g.add_edge("y", "a", "z")
    assert engine.evaluate_rpq(query, g) == {("x", "z")}


def test_indexed_graph_reverse_adjacency():
    from repro.errors import GraphError

    engine = Engine()
    g = Graph()
    g.add_edge("x", "a", "z")
    g.add_edge("y", "b", "z")
    index = engine.graph(g)
    assert sorted(index.in_edges("z")) == [("a", "x"), ("b", "y")]
    assert index.in_edges("x") == []
    try:
        index.in_edges("nope")
        raise AssertionError("expected GraphError")
    except GraphError:
        pass


def test_graphs_share_the_engine_nfa_cache():
    engine = Engine()
    g1, g2 = Graph(), Graph()
    g1.add_edge("x", "a", "y")
    g2.add_edge("u", "a", "v")
    query = parse_regex("a+")
    engine.evaluate_rpq(query, g1)
    engine.evaluate_rpq(query, g2)
    # One compilation serves both graphs (and Engine.accepts).
    assert engine.nfa(query) is engine.graph(g1).nfa_for(query)
    assert engine.graph(g1).nfa_for(query) is engine.graph(g2).nfa_for(query)


def test_engine_does_not_pin_dead_instances():
    # The index maps are weakly keyed and the indexes hold only weak
    # back-references, so dropping an instance must free its entry.
    import gc

    engine = Engine()
    doc = xml("<a><b/></a>")
    g = Graph()
    g.add_edge("x", "a", "y")
    engine.evaluate_twig(parse_twig("/a/b"), doc)
    engine.evaluate_rpq(parse_regex("a"), g)
    assert engine.stats()["documents"] == 1
    assert engine.stats()["graphs"] == 1
    del doc, g
    gc.collect()
    assert engine.stats()["documents"] == 0
    assert engine.stats()["graphs"] == 0


def test_invalidate_drops_stale_graph_index():
    engine = Engine()
    g = Graph()
    g.add_edge("x", "a", "y")
    query = parse_regex("a.a")
    assert engine.evaluate_rpq(query, g) == set()
    g.add_edge("y", "a", "z")
    engine.invalidate(g)
    assert engine.evaluate_rpq(query, g) == {("x", "z")}


# ---------------------------------------------------------------------------
# Observability: stats() aggregation and reset_stats()
# ---------------------------------------------------------------------------


def test_stats_count_cache_hits_and_index_builds():
    engine = Engine()
    doc = xml("<a><b/><b/></a>")
    query = parse_twig("//b")
    engine.evaluate_twig(query, doc)
    cold = engine.stats()
    assert cold["document_builds"] == 1
    assert cold["twig_query_misses"] == 1
    assert cold["twig_query_hits"] == 0
    # A warm repeat is a pure cache hit — no rebuild, hits > 0.
    engine.evaluate_twig(query, doc)
    warm = engine.stats()
    assert warm["twig_query_hits"] == 1
    assert warm["document_builds"] == 1
    assert warm["index_builds"] == 1


def test_version_bump_shows_up_as_a_rebuild():
    engine = Engine()
    doc = xml("<a><b/></a>")
    query = parse_twig("//b")
    engine.evaluate_twig(query, doc)
    engine.evaluate_twig(query, doc)
    assert engine.stats()["document_builds"] == 1
    doc.invalidate()  # version bump: next evaluation must reindex
    engine.evaluate_twig(query, doc)
    after = engine.stats()
    assert after["document_builds"] == 2
    # The replaced index's hit/miss history is retired, not lost.
    assert after["twig_query_hits"] == 1
    assert after["twig_query_misses"] == 2


def test_graph_builds_and_rpq_counters_aggregate():
    engine = Engine()
    g = Graph()
    g.add_edge("x", "a", "y")
    query = parse_regex("a")
    engine.evaluate_rpq(query, g)
    engine.evaluate_rpq(query, g)
    stats = engine.stats()
    assert stats["graph_builds"] == 1
    assert stats["rpq_source_hits"] > 0
    g.add_edge("y", "a", "z")  # mutators bump the graph version
    engine.evaluate_rpq(query, g)
    assert engine.stats()["graph_builds"] == 2


def test_reset_stats_zeroes_counters_but_keeps_caches():
    engine = Engine()
    doc = xml("<a><b/></a>")
    query = parse_twig("//b")
    engine.evaluate_twig(query, doc)
    engine.evaluate_twig(query, doc)
    engine.reset_stats()
    zeroed = engine.stats()
    assert zeroed["document_builds"] == 0
    assert zeroed["twig_query_hits"] == 0
    assert zeroed["twig_query_misses"] == 0
    assert zeroed["documents"] == 1  # the index itself survives
    # The next evaluation is still a warm hit (cache kept), counted anew.
    engine.evaluate_twig(query, doc)
    assert engine.stats() == {**zeroed, "twig_query_hits": 1}


def test_dead_instance_counters_are_retired_not_lost():
    import gc

    engine = Engine()
    doc = xml("<a><b/></a>")
    query = parse_twig("//b")
    engine.evaluate_twig(query, doc)
    engine.evaluate_twig(query, doc)
    del doc
    gc.collect()
    stats = engine.stats()
    assert stats["documents"] == 0
    assert stats["twig_query_hits"] == 1
    assert stats["twig_query_misses"] == 1
    assert stats["document_builds"] == 1


def test_lookup_totals_span_patches_and_untracked_rebuilds():
    # Every lookup counts into the engine's totals where it happens, so
    # the totals are the sum over each index the instance ever had: the
    # cold build, its patched successor, and the rebuild after an
    # untracked invalidate().
    engine = Engine()
    doc = xml("<a><b/><b/></a>")
    g = Graph()
    g.add_edge("x", "a", "y")
    twig_q = parse_twig("//b")
    rpq_q = parse_regex("a")

    def twice():
        # One twig lookup per call, one RPQ lookup per source vertex:
        # the first call of each misses, the second hits.
        for _ in range(2):
            engine.evaluate_twig(twig_q, doc)
            engine.evaluate_rpq(rpq_q, g)

    twice()  # cold indexes: twig 1+1, RPQ 2+2 (sources x, y)
    doc.insert_subtree(doc.root, XNode("b"))  # tracked: patched
    g.add_edge("y", "a", "z")                 # tracked: patched
    twice()  # patched indexes: twig 1+1, RPQ 3+3 (sources x, y, z)
    stats = engine.stats()
    assert stats["document_patches"] == 1 and stats["graph_patches"] == 1
    assert stats["document_builds"] == 2 and stats["graph_builds"] == 2
    assert (stats["twig_query_hits"], stats["twig_query_misses"]) == (2, 2)
    assert (stats["rpq_source_hits"], stats["rpq_source_misses"]) == (5, 5)
    doc.invalidate()        # untracked: the edit log no longer covers it
    engine.invalidate(g)    # the graph's index is dropped outright
    engine.evaluate_twig(twig_q, doc)
    engine.evaluate_rpq(rpq_q, g)
    stats = engine.stats()
    assert stats["document_builds"] == 3 and stats["graph_builds"] == 3
    assert stats["index_patches"] == 2  # both rebuilds were cold
    assert (stats["twig_query_hits"], stats["twig_query_misses"]) == (2, 3)
    assert (stats["rpq_source_hits"], stats["rpq_source_misses"]) == (5, 8)


def test_lru_reset_stats():
    cache = LRUCache(4)
    cache.put("k", 1)
    cache.get("k")
    cache.get("missing")
    assert cache.stats() == {"size": 1, "hits": 1, "misses": 1}
    cache.reset_stats()
    assert cache.stats() == {"size": 1, "hits": 0, "misses": 0}
    assert cache.get("k") == 1  # entries survive a stats reset


def test_replaced_indexes_are_not_pinned_by_stats_finalizers():
    # Regression: the stats-retirement finalizer used to hold a strong
    # reference to every replaced index, leaking one full snapshot per
    # invalidate/rebuild cycle for the instance's lifetime.
    import gc
    import weakref

    engine = Engine()
    doc = xml("<a><b/></a>")
    query = parse_twig("//b")
    stale_refs = []
    for _ in range(5):
        engine.evaluate_twig(query, doc)
        stale_refs.append(weakref.ref(engine._documents[doc]))
        doc.invalidate()
    engine.evaluate_twig(query, doc)
    gc.collect()
    assert all(ref() is None for ref in stale_refs), (
        "replaced index snapshots stayed alive while the tree lives")
    # History still aggregates across all six builds.
    stats = engine.stats()
    assert stats["document_builds"] == 6
    assert stats["twig_query_misses"] == 6


def test_short_lived_engines_are_not_pinned_by_finalizers():
    # Regression: the instance-death finalizer used to capture a bound
    # method, so every engine stayed alive (with its full index maps)
    # for as long as any document it ever indexed.
    import gc
    import weakref

    docs = [xml("<a><b/></a>") for _ in range(3)]
    query = parse_twig("//b")
    engine_refs = []
    for _ in range(5):
        engine = Engine()
        for doc in docs:
            engine.evaluate_twig(query, doc)
        engine_refs.append(weakref.ref(engine))
        del engine
    gc.collect()
    assert all(ref() is None for ref in engine_refs), (
        "dead engines stayed pinned while their documents live")
