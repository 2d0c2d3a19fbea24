"""The batch-evaluation service: batched answers must be element-for-element
identical (same node objects, document order) to the serial engine path,
through the in-process backend, for any workload shape.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.graphdb.pathquery import PathQuery
from repro.graphdb.regex import parse_regex
from repro.graphdb.rpq import evaluate_rpq_naive
from repro.learning.backend import LocalBackend
from repro.serving import BatchEvaluator, ItemKind, Workload
from repro.twig.parse import parse_twig
from repro.twig.semantics import evaluate_naive
from repro.xmltree.tree import XTree

from .conftest import (
    identical_answers,
    small_graphs,
    twig_queries,
    xml,
    xnode_trees,
)


# ---------------------------------------------------------------------------
# Property: batched twig answers == sequential engine answers
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(xnode_trees(max_depth=4, max_children=3), min_size=1,
                max_size=4),
       twig_queries(max_depth=3))
def test_batch_twig_matches_sequential_engine(trees, query):
    docs = [XTree(t) for t in trees]
    engine = Engine()
    serial = [engine.evaluate_twig(query, d) for d in docs]
    backend = LocalBackend(engine=engine)
    batch = backend.evaluate_twig_batch(query, docs)
    assert identical_answers(batch, serial)
    # The naive reference agrees too (same ids, same order).
    assert [[id(n) for n in a] for a in serial] == \
        [[id(n) for n in evaluate_naive(query, d)] for d in docs]


@settings(max_examples=40, deadline=None)
@given(xnode_trees(max_depth=4, max_children=3),
       st.lists(twig_queries(max_depth=3), min_size=1, max_size=5))
def test_batch_queries_over_one_document(tree, queries):
    doc = XTree(tree)
    engine = Engine()
    serial = [engine.evaluate_twig(q, doc) for q in queries]
    workload = Workload.twig_queries(queries, doc)
    backend = LocalBackend(engine=engine)
    batch = backend.run(workload).answers
    assert identical_answers(batch, serial)
    # One document => one shard => one index snapshot.
    assert len(workload.shards()) == 1


@settings(max_examples=40, deadline=None)
@given(st.lists(small_graphs(), min_size=1, max_size=3),
       st.sampled_from(("a", "a.b", "a+", "(a|b)*", "a*.b")))
def test_batch_rpq_matches_sequential_and_naive(graphs, regex_text):
    query = parse_regex(regex_text)
    engine = Engine()
    serial = [engine.evaluate_rpq(query, g) for g in graphs]
    assert serial == [evaluate_rpq_naive(query, g) for g in graphs]
    backend = LocalBackend(engine=engine)
    assert backend.evaluate_rpq_batch(query, graphs) == serial


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.sampled_from("ab"), max_size=4), min_size=1,
                max_size=8))
def test_batch_accepts_matches_sequential(words):
    query = PathQuery.parse("a+.b?")
    engine = Engine()
    tuples = [tuple(w) for w in words]
    serial = [engine.accepts(query, w) for w in tuples]
    backend = LocalBackend(engine=engine)
    assert backend.accepts_batch(query, tuples) == serial


# ---------------------------------------------------------------------------
# Workload / result plumbing
# ---------------------------------------------------------------------------


def test_selects_any_and_accepts_any_match_eager_forms():
    docs = [xml("<a><b><c/></b></a>"), xml("<a><b/></a>"), xml("<a/>")]
    query = parse_twig("//b[c]")
    candidates = [(d, n) for d in docs for n in d.nodes()]
    pq = PathQuery.parse("a+.b?")
    words = [("b",), ("a", "b"), ()]
    backend = LocalBackend(engine=Engine())
    assert backend.selects_any(query, candidates) == \
        any(backend.selects_batch(query, candidates))
    assert not backend.selects_any(query, [(docs[2], docs[2].root)])
    assert not backend.selects_any(None, candidates)
    assert backend.accepts_any(pq, words) == \
        any(backend.accepts_batch(pq, words))
    assert not backend.accepts_any(pq, [("b",), ()])


def test_workload_shards_group_by_instance_in_first_seen_order():
    d1, d2 = xml("<a><b/></a>"), xml("<a><b/><b/></a>")
    q1, q2 = parse_twig("//b"), parse_twig("/a")
    workload = Workload([
        *Workload.twig(q1, [d1, d2]),
        *Workload.twig(q2, [d1]),
    ])
    shards = workload.shards()
    assert [s.kind for s in shards] == [ItemKind.TWIG, ItemKind.TWIG]
    assert shards[0].indices == (0, 2)  # both d1 items share a shard
    assert shards[1].indices == (1,)
    assert shards[0].items[0].instance is d1
    assert shards[1].items[0].instance is d2


def test_accepts_workload_splits_into_subshards():
    # Acceptance items share no instance snapshot, so a one-query scan
    # over many words must split into multiple shards (streamed in
    # groups), while answers stay aligned with word order.
    query = PathQuery.parse("a*")
    words = [("a",) * (i % 3) for i in range(150)]
    workload = Workload.accepts(query, words)
    shards = workload.shards()
    assert len(shards) == 3  # 150 words / ACCEPTS_SHARD_SIZE=64
    assert sorted(i for s in shards for i in s.indices) == list(range(150))
    engine = Engine()
    serial = [engine.accepts(query, w) for w in words]
    backend = LocalBackend(engine=engine)
    assert backend.accepts_batch(query, words) == serial


def test_empty_workload_and_empty_candidates():
    evaluator = BatchEvaluator(engine=Engine())
    result = evaluator.run(Workload())
    assert len(result) == 0 and result.n_shards == 0
    backend = LocalBackend(engine=Engine())
    assert backend.selects_batch(parse_twig("/a"), []) == []
    assert backend.selects_batch(None, []) == []


def test_selects_batch_matches_engine_selects():
    docs = [xml("<a><b><c/></b><b/></a>"), xml("<a><b><c/><c/></b></a>")]
    query = parse_twig("//b[c]")
    engine = Engine()
    candidates = [(d, n) for d in docs for n in d.nodes()]
    serial = [engine.selects(query, d, n) for d, n in candidates]
    backend = LocalBackend(engine=engine)
    assert backend.selects_batch(query, candidates) == serial
    # No hypothesis selects nothing (the session's starting state).
    assert backend.selects_batch(None, candidates) == \
        [False] * len(candidates)


def test_evaluator_map_preserves_order():
    """The in-process backend's ``map`` is order-preserving."""
    items = list(range(23))
    backend = LocalBackend(engine=Engine())
    assert backend.map(lambda x: x * x, items) == [x * x for x in items]
    assert backend.map(lambda x: x, []) == []


def test_workload_concatenation_and_result_alignment():
    doc = xml("<a><b/></a>")
    q = parse_twig("//b")
    pq = PathQuery.parse("a")
    workload = Workload.twig(q, [doc]) + Workload.accepts(pq, [("a",), ()])
    assert len(workload) == 3
    result = BatchEvaluator(engine=Engine()).run(workload)
    assert [len(result[0]), result[1], result[2]] == [1, True, False]
