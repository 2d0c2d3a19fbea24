"""The batch-evaluation service: batched answers must be element-for-element
identical (same node objects, document order) to the serial engine path,
on every in-process backend (local, batched serial, batched process), for
any workload shape.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.graphdb.graph import Graph
from repro.graphdb.pathquery import PathQuery
from repro.graphdb.regex import parse_regex
from repro.graphdb.rpq import evaluate_rpq_naive
from repro.serving import (
    BatchEvaluator,
    ItemKind,
    ProcessExecutor,
    Workload,
)
from repro.twig.parse import parse_twig
from repro.twig.semantics import evaluate_naive
from repro.xmltree.tree import XTree

from .conftest import (
    identical_answers,
    in_process_backends,
    small_graphs,
    twig_queries,
    xml,
    xnode_trees,
)


@pytest.fixture(scope="module")
def process_executor():
    with ProcessExecutor(2) as executor:
        yield executor


# ---------------------------------------------------------------------------
# Property: batched twig answers == sequential engine answers, all backends
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(xnode_trees(max_depth=4, max_children=3), min_size=1,
                max_size=4),
       twig_queries(max_depth=3))
def test_batch_twig_matches_sequential_engine(process_executor, trees,
                                              query):
    docs = [XTree(t) for t in trees]
    engine = Engine()
    serial = [engine.evaluate_twig(query, d) for d in docs]
    for backend in in_process_backends(engine, process_executor):
        batch = backend.evaluate_twig_batch(query, docs)
        assert identical_answers(batch, serial), backend
    # The naive reference agrees too (same ids, same order).
    assert [[id(n) for n in a] for a in serial] == \
        [[id(n) for n in evaluate_naive(query, d)] for d in docs]


@settings(max_examples=40, deadline=None)
@given(xnode_trees(max_depth=4, max_children=3),
       st.lists(twig_queries(max_depth=3), min_size=1, max_size=5))
def test_batch_queries_over_one_document(process_executor, tree, queries):
    doc = XTree(tree)
    engine = Engine()
    serial = [engine.evaluate_twig(q, doc) for q in queries]
    workload = Workload.twig_queries(queries, doc)
    for backend in in_process_backends(engine, process_executor):
        batch = backend.run(workload).answers
        assert identical_answers(batch, serial), backend
    # One document => one shard => one index snapshot.
    assert len(workload.shards()) == 1


@settings(max_examples=40, deadline=None)
@given(st.lists(small_graphs(), min_size=1, max_size=3),
       st.sampled_from(("a", "a.b", "a+", "(a|b)*", "a*.b")))
def test_batch_rpq_matches_sequential_and_naive(process_executor, graphs,
                                                regex_text):
    query = parse_regex(regex_text)
    engine = Engine()
    serial = [engine.evaluate_rpq(query, g) for g in graphs]
    assert serial == [evaluate_rpq_naive(query, g) for g in graphs]
    for backend in in_process_backends(engine, process_executor):
        assert backend.evaluate_rpq_batch(query, graphs) == serial, backend


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.sampled_from("ab"), max_size=4), min_size=1,
                max_size=8))
def test_batch_accepts_matches_sequential(process_executor, words):
    query = PathQuery.parse("a+.b?")
    engine = Engine()
    tuples = [tuple(w) for w in words]
    serial = [engine.accepts(query, w) for w in tuples]
    for backend in in_process_backends(engine, process_executor):
        assert backend.accepts_batch(query, tuples) == serial, backend


# ---------------------------------------------------------------------------
# The process executor: picklable shard tasks, identity-preserving decode
# ---------------------------------------------------------------------------


def test_process_executor_twig_identity(process_executor):
    docs = [xml("<a><b><c/></b><b/></a>"),
            xml("<a><d><b><c/></b></d><b/></a>"),
            xml("<a/>")]
    query = parse_twig("//b[c]")
    engine = Engine()
    serial = [engine.evaluate_twig(query, d) for d in docs]
    batch = BatchEvaluator(
        engine=engine,
        executor=process_executor).run(Workload.twig(query, docs)).answers
    # Same *objects*: workers return pre-order positions, never copies.
    assert identical_answers(batch, serial)


def test_process_executor_mixed_workload(process_executor):
    doc = xml("<a><b><c/></b></a>")
    g = Graph()
    g.add_edge("x", "a", "y")
    g.add_edge("y", "a", "z")
    twig_q = parse_twig("//c")
    rpq_q = parse_regex("a+")
    pq = PathQuery.parse("a+.b?")
    words = [("a",), ("b",), ("a", "b")]
    workload = Workload.twig(twig_q, [doc]) + Workload.rpq(rpq_q, [g]) \
        + Workload.accepts(pq, words)
    engine = Engine()
    result = BatchEvaluator(engine=engine,
                            executor=process_executor).run(workload)
    assert list(result[0]) == engine.evaluate_twig(twig_q, doc)
    assert result[1] == engine.evaluate_rpq(rpq_q, g)
    assert list(result.answers[2:]) == [engine.accepts(pq, w) for w in words]
    assert result.executor == "process"


@settings(max_examples=8, deadline=None)
@given(st.lists(xnode_trees(max_depth=3, max_children=3), min_size=1,
                max_size=3),
       twig_queries(max_depth=2))
def test_process_executor_random_parity(process_executor, trees, query):
    docs = [XTree(t) for t in trees]
    engine = Engine()
    serial = [engine.evaluate_twig(query, d) for d in docs]
    batch = BatchEvaluator(
        engine=engine,
        executor=process_executor).run(Workload.twig(query, docs)).answers
    assert identical_answers(batch, serial)


# ---------------------------------------------------------------------------
# Workload / result plumbing
# ---------------------------------------------------------------------------


def test_process_decode_refuses_cross_version_positions():
    """A mutation landing mid-flight must raise, never mis-map positions."""
    from repro.serving.executors import ShardExecutor

    doc = xml("<a><b><c/></b><b/></a>")

    class MutatingIsolatedExecutor(ShardExecutor):
        # Simulates the race deterministically: the mutation lands after
        # the parent pinned its snapshot but before workers evaluate.
        isolated = True
        name = "mutating"

        def map(self, fn, tasks):
            doc.root.add(doc.root.children[0].copy())
            doc.invalidate()
            return [fn(t) for t in tasks]

    evaluator = BatchEvaluator(engine=Engine(),
                               executor=MutatingIsolatedExecutor())
    with pytest.raises(RuntimeError, match="mutated while a process batch"):
        evaluator.run(Workload.twig(parse_twig("//b"), [doc]))


def test_selects_any_and_accepts_any_match_eager_forms(process_executor):
    docs = [xml("<a><b><c/></b></a>"), xml("<a><b/></a>"), xml("<a/>")]
    query = parse_twig("//b[c]")
    candidates = [(d, n) for d in docs for n in d.nodes()]
    pq = PathQuery.parse("a+.b?")
    words = [("b",), ("a", "b"), ()]
    for backend in in_process_backends(Engine(), process_executor):
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


def test_accepts_workload_splits_into_subshards(process_executor):
    # Acceptance items share no instance snapshot, so a one-query scan
    # over many words must spread over multiple shards (parallelisable),
    # while answers stay aligned with word order.
    query = PathQuery.parse("a*")
    words = [("a",) * (i % 3) for i in range(150)]
    workload = Workload.accepts(query, words)
    shards = workload.shards()
    assert len(shards) == 3  # 150 words / ACCEPTS_SHARD_SIZE=64
    assert sorted(i for s in shards for i in s.indices) == list(range(150))
    engine = Engine()
    serial = [engine.accepts(query, w) for w in words]
    for backend in in_process_backends(engine, process_executor):
        assert backend.accepts_batch(query, words) == serial, backend


def test_empty_workload_and_empty_candidates(process_executor):
    evaluator = BatchEvaluator(engine=Engine())
    result = evaluator.run(Workload())
    assert len(result) == 0 and result.n_shards == 0
    for backend in in_process_backends(Engine(), process_executor):
        assert backend.selects_batch(parse_twig("/a"), []) == []
        assert backend.selects_batch(None, []) == []


def test_selects_batch_matches_engine_selects(process_executor):
    docs = [xml("<a><b><c/></b><b/></a>"), xml("<a><b><c/><c/></b></a>")]
    query = parse_twig("//b[c]")
    engine = Engine()
    candidates = [(d, n) for d in docs for n in d.nodes()]
    serial = [engine.selects(query, d, n) for d, n in candidates]
    for backend in in_process_backends(engine, process_executor):
        assert backend.selects_batch(query, candidates) == serial, backend
        # No hypothesis selects nothing (the session's starting state).
        assert backend.selects_batch(None, candidates) == \
            [False] * len(candidates)


def test_evaluator_map_preserves_order(process_executor):
    """Every in-process backend's ``map`` is order-preserving (arbitrary
    closures run inline even beside a process pool)."""
    items = list(range(23))
    for backend in in_process_backends(Engine(), process_executor):
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


def test_worker_instance_cache_survives_parent_mutation_of_live_objects():
    """The digest-keyed worker cache under the nastiest aliasing shape:
    an in-process isolated executor hands over the parent's *live*
    objects, the parent then mutates them, and a later structurally
    identical instance (same digest as the pre-mutation structure) must
    get pre-mutation answers — never the mutated live object's.
    Regression: the cache used to serve the mutated aliased graph, and a
    fresh XTree wrapper's version hid root mutations from verification."""
    from repro.serving.executors import ShardExecutor

    class InlineIsolatedExecutor(ShardExecutor):
        isolated = True
        name = "inline-isolated"

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    evaluator = BatchEvaluator(engine=Engine(),
                               executor=InlineIsolatedExecutor())

    # Graph shape: cache g1 live, mutate it, then query a fresh twin.
    def geo():
        g = Graph()
        g.add_edge(0, "road", 1)
        g.add_edge(1, "road", 2)
        return g

    g1, g2 = geo(), geo()
    query = parse_regex("road+")
    [first] = evaluator.run(Workload.rpq(query, [g1])).answers
    assert (0, 2) in first
    g1.add_edge(2, "road", 3)  # bumps g1's version
    [twin] = evaluator.run(Workload.rpq(query, [g2])).answers
    assert all(3 not in pair for pair in twin), \
        "answers leaked from the mutated aliased graph"
    assert twin == {(0, 1), (0, 2), (1, 2)}

    # Tree shape: same aliasing through a live root (no version of its
    # own on the worker-side wrapper — the cache must hold a snapshot).
    t1, t2 = xml("<a><b/><c/></a>"), xml("<a><b/><c/></a>")
    twig = parse_twig("//b")
    [nodes] = evaluator.run(Workload.twig(twig, [t1])).answers
    assert len(nodes) == 1
    t1.root.add(t1.root.children[0].copy())  # now two <b>s in t1
    t1.invalidate()
    [twin_nodes] = evaluator.run(Workload.twig(twig, [t2])).answers
    assert len(twin_nodes) == 1
    assert twin_nodes[0] is list(t2.nodes())[1]
