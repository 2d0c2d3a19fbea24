"""The evaluation-backend seam: every learner gets identical answers —
same learned query, same question sequence, same node *objects* — on
:class:`LocalBackend` and on :class:`RemoteBackend` over a real TCP
server.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.graphdb.geo import make_geo_graph
from repro.graphdb.pathquery import PathQuery
from repro.graphdb.regex import parse_regex
from repro.graphdb.rpq import evaluate_rpq_naive
from repro.learning.backend import (
    EvaluationBackend,
    LocalBackend,
    RemoteBackend,
    Workload,
    as_backend,
)
from repro.learning.crowd import CrowdBudget, crowd_learn_twig
from repro.learning.graph_session import InteractivePathSession
from repro.learning.interactive import InteractiveJoinSession
from repro.learning.join_learner import PairExample, learn_join
from repro.learning.pac import pac_learn_twig
from repro.learning.path_learner import check_path_consistency
from repro.learning.protocol import NodeExample
from repro.learning.semijoin_learner import LeftExample, greedy_semijoin
from repro.learning.twig_negative import check_consistency
from repro.learning.union_learner import learn_union_twig
from repro.learning.xml_session import InteractiveTwigSession
from repro.relational.generator import make_join_instance
from repro.serving import (
    AsyncBatchEvaluator,
    BatchEvaluator,
    ChaosProxy,
    ItemKind,
    ServerThread,
    WorkloadItem,
)
from repro.twig.generator import canonical_query_for_node
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
# The backend roster (module-scoped: one TCP server)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def server():
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server_thread:
        yield server_thread


@pytest.fixture
def all_backends(server):
    """One of each: local and remote TCP."""
    backends = [LocalBackend(engine=Engine()), RemoteBackend(*server.address)]
    yield backends
    for backend in backends:
        backend.close()


# ---------------------------------------------------------------------------
# Raw answer parity
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(roots=st.lists(xnode_trees(), min_size=1, max_size=4),
       data=st.data())
def test_membership_shapes_identical_on_every_backend(roots, data):
    docs = [XTree(r) for r in roots]
    tree = docs[data.draw(st.integers(0, len(docs) - 1))]
    nodes = list(tree.nodes())
    node = nodes[data.draw(st.integers(0, len(nodes) - 1))]
    query = canonical_query_for_node(tree, node)
    candidates = [(doc, n) for doc in docs for n in doc.nodes()]

    baseline = LocalBackend(engine=Engine())
    base_answers = baseline.evaluate_twig_batch(query, docs)
    base_flags = baseline.selects_batch(query, candidates)
    assert base_flags[candidates.index((tree, node))]

    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as srv:
        others = [LocalBackend(engine=Engine()),
                  RemoteBackend(*srv.address)]
        for backend in others:
            assert identical_answers(
                backend.evaluate_twig_batch(query, docs), base_answers)
            assert backend.selects_batch(query, candidates) == base_flags
            assert backend.selects(query, tree, node)
            backend.close()


@st.composite
def mixed_workloads(draw) -> Workload:
    """Random interleavings of twig, RPQ and acceptance items; documents,
    graphs and queries are shared between items, so shards group several
    items and mix kinds across one workload."""
    docs = [XTree(draw(xnode_trees(max_depth=3)))
            for _ in range(draw(st.integers(1, 3)))]
    graphs = [draw(small_graphs()) for _ in range(draw(st.integers(1, 2)))]
    twigs = [draw(twig_queries(max_depth=3))
             for _ in range(draw(st.integers(1, 3)))]
    regexes = [parse_regex(text) for text in ("a+", "a.b", "(a|b)*.c")]
    paths = [PathQuery.parse(text) for text in ("a+.b?", "(a|b)*")]
    items = []
    for kind in draw(st.lists(st.sampled_from(list(ItemKind)),
                              min_size=1, max_size=10)):
        if kind is ItemKind.TWIG:
            items.append(WorkloadItem(kind, draw(st.sampled_from(twigs)),
                                      draw(st.sampled_from(docs))))
        elif kind is ItemKind.RPQ:
            graph = draw(st.sampled_from(graphs))
            sources = draw(st.none() | st.lists(
                st.sampled_from(sorted(graph.vertices())), max_size=2))
            items.append(WorkloadItem(
                kind, draw(st.sampled_from(regexes)), graph,
                sources=None if sources is None else tuple(sources)))
        else:
            word = draw(st.lists(st.sampled_from("abc"), max_size=4))
            items.append(WorkloadItem(kind, draw(st.sampled_from(paths)),
                                      word=tuple(word)))
    return Workload(items)


@settings(max_examples=25, deadline=None)
@given(workload=mixed_workloads())
def test_mixed_workload_matches_naive_oracles_on_every_backend(
        server, workload):
    expected = []
    for item in workload:
        if item.kind is ItemKind.TWIG:
            expected.append([id(n) for n in
                             evaluate_naive(item.query, item.instance)])
        elif item.kind is ItemKind.RPQ:
            expected.append(evaluate_rpq_naive(
                item.query, item.instance,
                None if item.sources is None else list(item.sources)))
        else:
            expected.append(item.query.accepts(item.word))
    backends = [LocalBackend(engine=Engine()),
                RemoteBackend(*server.address)]
    try:
        for backend in backends:
            answers = backend.run(workload).answers
            got = [[id(n) for n in answer] if item.kind is ItemKind.TWIG
                   else answer for item, answer in zip(workload, answers)]
            assert got == expected, backend
    finally:
        for backend in backends:
            backend.close()


def test_accepts_shapes_identical_on_every_backend(all_backends):
    query = PathQuery.parse("road+.rail?")
    words = [("road",), ("rail",), ("road", "road"), ("road", "rail"),
             ("rail", "road"), ()]
    baseline = all_backends[0]
    base_flags = baseline.accepts_batch(query, words)
    for backend in all_backends[1:]:
        assert backend.accepts_batch(query, words) == base_flags
        assert [backend.accepts(query, w) for w in words] == base_flags
        assert backend.accepts_any(query, words) == any(base_flags)
        assert not backend.accepts_any(query, [("rail", "rail")])


def test_none_hypothesis_selects_nothing_everywhere(all_backends):
    doc = xml("<a><b/><b/></a>")
    candidates = [(doc, n) for n in doc.nodes()]
    for backend in all_backends:
        assert backend.selects_batch(None, candidates) == [False] * 3
        assert not backend.selects_any(None, candidates)
        assert not backend.selects(None, doc, doc.root)


def test_map_is_order_preserving(all_backends):
    items = list(range(23))
    for backend in all_backends:
        assert backend.map(lambda x: x * x, items) == [x * x for x in items]


# ---------------------------------------------------------------------------
# Sessions and learners are backend-invariant
# ---------------------------------------------------------------------------


def _session_docs():
    return [
        xml("<site><people><person><name>n</name><phone>1</phone></person>"
            "<person><name>m</name></person></people></site>"),
        xml("<site><people><person><name>o</name><phone>2</phone>"
            "</person></people></site>"),
    ]


def test_twig_session_invariant_across_backends(all_backends):
    docs = _session_docs()
    goal = parse_twig("//person[phone]/name")
    baseline = InteractiveTwigSession(docs, goal,
                                      backend=all_backends[0]).run()
    for backend in all_backends[1:]:
        result = InteractiveTwigSession(docs, goal, backend=backend).run()
        assert result.query == baseline.query
        assert result.stats == baseline.stats
        assert result.stats.asked == baseline.stats.asked


def test_join_session_invariant_across_backends(all_backends):
    inst = make_join_instance(rng=3, goal_pairs=2, left_rows=6,
                              right_rows=6, domain=5)
    baseline = InteractiveJoinSession(inst.left, inst.right, inst.goal,
                                      max_pool=40, rng=5,
                                      backend=all_backends[0]).run()
    for backend in all_backends[1:]:
        result = InteractiveJoinSession(inst.left, inst.right, inst.goal,
                                        max_pool=40, rng=5,
                                        backend=backend).run()
        assert result.predicate == baseline.predicate
        assert result.stats == baseline.stats


@settings(max_examples=10, deadline=None)
@given(roots=st.lists(xnode_trees(max_depth=3), min_size=2, max_size=3),
       data=st.data())
def test_pac_learning_invariant_across_backends(roots, data):
    """pac_learn_twig produces identical results on the local and the
    remote backend."""
    docs = [XTree(r) for r in roots]
    tree = docs[data.draw(st.integers(0, len(docs) - 1))]
    nodes = list(tree.nodes())
    node = nodes[data.draw(st.integers(0, len(nodes) - 1))]
    goal = canonical_query_for_node(tree, node)

    def run(backend: EvaluationBackend):
        rng = random.Random(7)
        pool = [(doc, n) for doc in docs for n in doc.nodes()]
        engine = Engine()
        first = [(tree, node)]  # guarantee at least one positive draw

        def sampler() -> NodeExample:
            t, n = first.pop() if first else pool[rng.randrange(len(pool))]
            return NodeExample(t, n, engine.selects(goal, t, n))

        try:
            result = pac_learn_twig(sampler, max_examples=12, budget=64,
                                    backend=backend)
        finally:
            backend.close()
        return (result.query.canonical(), result.empirical_error,
                result.n_examples, result.consistent)

    baseline = run(LocalBackend(engine=Engine()))
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as srv:
        assert run(RemoteBackend(*srv.address)) == baseline


def test_pac_learning_invariant_on_a_fixed_corpus(all_backends):
    docs = _session_docs()
    goal = parse_twig("//person[phone]")
    results = []
    for backend in all_backends:
        rng = random.Random(11)
        pool = [(doc, n) for doc in docs for n in doc.nodes()]
        engine = Engine()

        def sampler() -> NodeExample:
            t, n = pool[rng.randrange(len(pool))]
            return NodeExample(t, n, engine.selects(goal, t, n))

        result = pac_learn_twig(sampler, max_examples=10, budget=64,
                                backend=backend)
        results.append((result.query.canonical(), result.empirical_error,
                        result.consistent))
    assert all(r == results[0] for r in results[1:])


def test_crowd_loop_invariant_across_backends(all_backends):
    """Satellite: the crowd loop — an interactive session priced as HITs
    — asks the same questions and bills the same on every backend."""
    docs = _session_docs()
    goal = parse_twig("//person[phone]/name")
    budget = CrowdBudget(cost_per_hit=0.10, redundancy=3)
    baseline = crowd_learn_twig(docs, goal, budget=budget,
                                backend=all_backends[0])
    for backend in all_backends[1:]:
        result = crowd_learn_twig(docs, goal, budget=budget, backend=backend)
        assert result.query == baseline.query
        assert result.stats == baseline.stats
        assert result.stats.asked == baseline.stats.asked
        assert result.costed.spent == baseline.costed.spent
        assert result.costed.saved == baseline.costed.saved
    assert baseline.costed.spent == \
        pytest.approx(baseline.stats.questions * 3 * 0.10)


def test_consistency_union_and_path_learners_across_backends(all_backends):
    docs = _session_docs()
    goal = parse_twig("//person[phone]/name")
    engine = Engine()
    examples = []
    for doc in docs:
        selected = {id(n) for n in engine.evaluate_twig(goal, doc)}
        for n in doc.nodes():
            if n.label == "name":
                examples.append(NodeExample(doc, n, id(n) in selected))
    baseline_consistency = check_consistency(examples,
                                             backend=all_backends[0])
    baseline_union = learn_union_twig(examples, backend=all_backends[0])
    baseline_path = check_path_consistency(
        [("road", "road"), ("road",)], [("rail",), ("road", "rail")],
        backend=all_backends[0])
    for backend in all_backends[1:]:
        result = check_consistency(examples, backend=backend)
        assert result.consistent == baseline_consistency.consistent
        assert (result.query.canonical() ==
                baseline_consistency.query.canonical())
        union = learn_union_twig(examples, backend=backend)
        assert ([d.canonical() for d in union.query.disjuncts] ==
                [d.canonical() for d in baseline_union.query.disjuncts])
        assert union.consistent == baseline_union.consistent
        path = check_path_consistency(
            [("road", "road"), ("road",)], [("rail",), ("road", "rail")],
            backend=backend)
        assert path.consistent == baseline_path.consistent
        assert path.violated == baseline_path.violated


def test_relational_learners_backend_map_parity(all_backends):
    inst = make_join_instance(rng=13, goal_pairs=2, left_rows=6,
                              right_rows=6, domain=4)
    pool = [(lrow, rrow) for lrow in inst.left for rrow in inst.right]
    examples = [
        PairExample(lrow, rrow,
                    bool(inst.goal <= frozenset()) or i % 3 == 0)
        for i, (lrow, rrow) in enumerate(pool[:12])
    ]
    semi_examples = [LeftExample(row, i % 2 == 0)
                     for i, row in enumerate(inst.left)]
    try:
        baseline_join = learn_join(inst.left, inst.right, examples)
    except Exception as exc:  # noqa: BLE001 - parity includes failures
        baseline_join = type(exc)
    baseline_semi = greedy_semijoin(inst.left, inst.right, semi_examples)
    for backend in all_backends:
        try:
            join = learn_join(inst.left, inst.right, examples,
                              backend=backend)
        except Exception as exc:  # noqa: BLE001
            assert type(exc) is baseline_join
        else:
            assert join.predicate == baseline_join.predicate
        semi = greedy_semijoin(inst.left, inst.right, semi_examples,
                               backend=backend)
        assert semi.predicate == baseline_semi.predicate
        assert semi.ignored_positives == baseline_semi.ignored_positives


# ---------------------------------------------------------------------------
# Parameter resolution (the deprecated evaluator= shim is gone)
# ---------------------------------------------------------------------------


def test_evaluator_parameter_is_removed():
    """The one-release ``evaluator=`` deprecation window has closed: the
    sessions reject the keyword outright, and ``as_backend`` no longer
    accepts a second positional argument."""
    docs = _session_docs()
    goal = parse_twig("//person[phone]/name")
    with pytest.raises(TypeError, match="evaluator"):
        InteractiveTwigSession(docs, goal,
                               evaluator=BatchEvaluator(engine=Engine()))
    with pytest.raises(TypeError):
        as_backend(LocalBackend(Engine()), BatchEvaluator())


def test_as_backend_resolution_rules():
    backend = LocalBackend(Engine())
    assert as_backend(backend) is backend
    assert as_backend(None).name == "local"
    # A bare BatchEvaluator is not a backend: LocalBackend wraps one.
    with pytest.raises(TypeError, match="EvaluationBackend"):
        as_backend(BatchEvaluator())
    with pytest.raises(TypeError, match="EvaluationBackend"):
        as_backend("nope")


# ---------------------------------------------------------------------------
# Content-addressed instance shipping (the remote ship-once contract)
# ---------------------------------------------------------------------------


def test_remote_session_ships_each_instance_once(server):
    """A warm backend pools one digest registry: the first session ships
    the corpus, every later round (and session) sends refs, and the
    question sequence stays pinned to the local baseline throughout."""
    docs = _session_docs()
    goal = parse_twig("//person[phone]/name")
    baseline = InteractiveTwigSession(
        docs, goal, backend=LocalBackend(Engine())).run()
    with RemoteBackend(*server.address) as backend:
        first = InteractiveTwigSession(docs, goal, backend=backend).run()
        assert first.query == baseline.query
        assert first.stats.asked == baseline.stats.asked
        stats = backend.stats()
        assert stats["instances_shipped"] == len(docs)
        assert stats["round_trips"] > len(docs)  # many rounds, one ship
        assert stats["bytes_saved"] > 0
        # The cache-hit round: a second session over the same corpus on
        # the same backend ships nothing new and asks the same questions.
        second = InteractiveTwigSession(docs, goal, backend=backend).run()
        assert second.query == baseline.query
        assert second.stats.asked == baseline.stats.asked
        assert backend.stats()["instances_shipped"] == len(docs)


def test_remote_session_invariant_after_eviction():
    """A post-eviction round: the server's store is too small for the
    corpus, so refs keep missing and the need_instances negotiation
    re-ships — the learned query and question sequence never notice."""
    from repro.serving import InstanceStore

    docs = _session_docs()
    goal = parse_twig("//person[phone]/name")
    baseline = InteractiveTwigSession(
        docs, goal, backend=LocalBackend(Engine())).run()
    store = InstanceStore(max_bytes=1)  # at most one (oversized) entry
    with ServerThread(AsyncBatchEvaluator(engine=Engine()),
                      instance_store=store) as evicting_server:
        with RemoteBackend(*evicting_server.address) as backend:
            result = InteractiveTwigSession(docs, goal,
                                            backend=backend).run()
            assert result.query == baseline.query
            assert result.stats.asked == baseline.stats.asked
            stats = backend.stats()
            # Constant re-shipping, not constant failure.
            assert stats["instances_shipped"] > len(docs)
    assert store.stats()["evictions"] > 0


def test_warm_instances_is_backend_invariant(server):
    docs = _session_docs()
    goal = parse_twig("//person[phone]/name")
    local = LocalBackend(engine=Engine())
    assert local.warm_instances(docs) == {"shipped": 0, "bytes": 0}
    assert local.known_digests == set()
    baseline = InteractiveTwigSession(docs, goal, backend=local).run()
    with RemoteBackend(*server.address) as backend:
        warmed = backend.warm_instances(docs)
        assert warmed["shipped"] == len(docs) and warmed["bytes"] > 0
        assert len(backend.known_digests) == len(docs)
        # Idempotent: the registry already covers the corpus.
        assert backend.warm_instances(docs) == {"shipped": 0, "bytes": 0}
        result = InteractiveTwigSession(docs, goal, backend=backend).run()
        assert result.stats.asked == baseline.stats.asked
        # The sessions' evaluation rounds shipped nothing beyond the warm.
        assert backend.stats()["instances_shipped"] == len(docs)


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def test_local_stats_expose_engine_and_shard_counters():
    doc = xml("<a><b/><b/></a>")
    query = parse_twig("//b")
    local = LocalBackend(engine=Engine())
    local.evaluate_twig_batch(query, [doc])
    local.evaluate_twig_batch(query, [doc])
    stats = local.stats()
    assert stats["backend"] == "local"
    assert stats["batches"] == 2 and stats["items"] == 2
    assert stats["shards"] == 2
    assert stats["engine"]["twig_query_hits"] == 1
    assert stats["engine"]["document_builds"] == 1
    local.reset_stats()
    assert local.stats()["batches"] == 0
    assert local.stats()["shards"] == 0


def test_remote_stats_report_round_trips_bytes_and_server_engine(server):
    doc = xml("<a><b/><b/></a>")
    query = parse_twig("//b")
    with RemoteBackend(*server.address) as backend:
        before = server.server.evaluator.engine.stats()["document_builds"]
        backend.evaluate_twig_batch(query, [doc])
        stats = backend.stats()
        assert stats["backend"] == "remote"
        assert stats["round_trips"] >= 1
        assert stats["bytes_sent"] > 0 and stats["bytes_received"] > 0
        engine_stats = stats["server"]["engine"]
        assert engine_stats["document_builds"] == before + 1


def test_remote_backend_owns_or_shares_its_client(server):
    with RemoteBackend(*server.address) as owned:
        client = owned.client
    with pytest.raises(RuntimeError, match="closed"):
        client.stats()


def test_workload_reexport_builds_mixed_batches(all_backends):
    docs = _session_docs()
    query = parse_twig("//person/name")
    workload = Workload.twig(query, docs)
    baseline = all_backends[0].evaluate_batch(workload)
    for backend in all_backends[1:]:
        result = backend.evaluate_batch(workload)
        assert identical_answers(result.answers, baseline.answers)


def test_closed_remote_backend_refuses_instead_of_redialling(server):
    backend = RemoteBackend(*server.address)
    backend.evaluate_twig_batch(parse_twig("//b"), [xml("<a><b/></a>")])
    backend.close()
    with pytest.raises(RuntimeError, match="closed"):
        backend.evaluate_twig_batch(parse_twig("//b"), [xml("<a><b/></a>")])
    backend.close()  # idempotent
    assert backend.client.closed  # no resurrected socket


# ---------------------------------------------------------------------------
# One request at a time: every response is read before the next request
# ---------------------------------------------------------------------------


def _session(kind: str, backend: EvaluationBackend):
    if kind == "twig":
        return InteractiveTwigSession(
            _session_docs(), parse_twig("//person[phone]/name"),
            backend=backend)
    if kind == "path":
        return InteractivePathSession(
            make_geo_graph(rng=1, width=5, height=4), "city_0_0",
            "city_3_0", PathQuery.parse("highway+"), max_length=6,
            max_candidates=40, backend=backend)
    inst = make_join_instance(rng=3, goal_pairs=2, left_rows=6,
                              right_rows=6, domain=5)
    return InteractiveJoinSession(inst.left, inst.right, inst.goal,
                                  max_pool=40, rng=5, backend=backend)


def _watch_requests(backend: EvaluationBackend) -> dict[str, int]:
    """Wrap the backend's request methods.  The returned log counts the
    requests a caller starts, and those it starts while an earlier
    request's response is still being read."""
    log = {"requests": 0, "nested": 0}
    reading = [0]

    def begin() -> None:
        log["requests"] += 1
        log["nested"] += bool(reading[0])

    def watched(method):
        def call(*args):
            begin()
            return method(*args)
        return call

    stream = backend.stream

    def watched_stream(workload):
        begin()

        def read():
            reading[0] += 1
            try:
                yield from stream(workload)
            finally:
                reading[0] -= 1
        return read()

    backend.run = watched(backend.run)
    backend.map = watched(backend.map)
    backend.prefetch = watched(backend.prefetch)
    backend.stream = watched_stream
    return log


@pytest.mark.parametrize("kind", ["twig", "path", "join"])
def test_sessions_read_each_response_before_the_next_request(server, kind):
    for backend in (LocalBackend(engine=Engine()),
                    RemoteBackend(*server.address)):
        with backend:
            log = _watch_requests(backend)
            _session(kind, backend).run()
        assert log["requests"] > 0, backend
        assert log["nested"] == 0, backend


@pytest.mark.parametrize("kind", ["twig", "path"])
def test_remote_session_opens_one_connection(server, kind):
    with ChaosProxy(server.address) as proxy:
        with RemoteBackend(*proxy.address) as backend:
            result = _session(kind, backend).run()
        assert result.stats.implied_negative > 0  # the session probed
        assert proxy.stats()["connections"] == 1


# ---------------------------------------------------------------------------
# The prefetch ledger: parked answers serve the next matching round
# ---------------------------------------------------------------------------


def _requests(backend: EvaluationBackend) -> int:
    """Requests the backend has sent (the counter behind round_trips)."""
    return backend.client.requests if isinstance(backend, RemoteBackend) \
        else 0


def test_prefetched_round_serves_the_same_nodes_without_a_request(
        all_backends):
    docs = _session_docs()
    workload = Workload.twig(parse_twig("//person/name"), docs)
    expected = LocalBackend(engine=Engine()).run(workload).answers
    for backend in all_backends:
        assert backend.prefetch(workload) == len(workload)
        sent = _requests(backend)
        result = backend.run(workload)
        assert _requests(backend) == sent, backend
        assert identical_answers(result.answers, expected)
        assert backend.stats()["prefetch"] == {
            "submitted": len(workload), "hits": len(workload), "wasted": 0}


def test_tracked_edit_between_prefetch_and_run_misses(all_backends):
    for backend in all_backends:
        docs = _session_docs()
        workload = Workload.twig(parse_twig("//person/name"), docs)
        backend.prefetch(workload)
        first_name = next(n for n in docs[0].nodes() if n.label == "name")
        docs[0].relabel_node(first_name, label="nick")
        sent = _requests(backend)
        result = backend.run(workload)
        if isinstance(backend, RemoteBackend):
            assert _requests(backend) == sent + 1  # re-evaluated remotely
        expected = LocalBackend(engine=Engine()).run(workload).answers
        assert identical_answers(result.answers, expected)
        assert all(n is not first_name for n in result.answers[0])
        assert backend.stats()["prefetch"]["hits"] == 0


def test_parking_past_the_cap_counts_the_overflow_as_wasted(all_backends):
    query = PathQuery.parse("road+")
    words = [("road",), ("rail",), ("road", "road")]
    for backend in all_backends:
        backend.PREFETCH_CAP = 2
        backend.prefetch(Workload.accepts(query, words))
        assert backend.stats()["prefetch"] == {
            "submitted": 3, "hits": 0, "wasted": 1}
        # The two newest answers stay parked and serve a round...
        assert backend.accepts_batch(query, words[1:]) == [False, True]
        # ...the aged-out one no longer does.
        assert backend.accepts_batch(query, words[:1]) == [True]
        assert backend.stats()["prefetch"]["hits"] == 2
