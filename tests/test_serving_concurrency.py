"""Concurrency: one shared engine hammered from many threads must stay
consistent — no stale answers, no exceptions, bounded caches, and
mutations/resets landing mid-batch are atomic at shard granularity.

Everything here is deterministic up to thread scheduling: all RNGs are
explicitly seeded and every assertion accepts exactly the set of outcomes
the snapshot-consistency contract allows (pre-mutation or post-mutation,
never a mix), so the suite needs no ordering plugins to stay stable.
"""

from __future__ import annotations

import random
import sys
import threading

from repro.engine import Engine, LRUCache, get_engine, reset_engine
from repro.graphdb.graph import Graph
from repro.graphdb.pathquery import PathQuery
from repro.graphdb.regex import parse_regex
from repro.learning.backend import LocalBackend
from repro.learning.graph_session import InteractivePathSession
from repro.learning.interactive import InteractiveJoinSession
from repro.learning.xml_session import InteractiveTwigSession
from repro.relational.generator import make_join_instance
from repro.serving import BatchEvaluator, ItemKind, Workload, WorkloadItem
from repro.twig.parse import parse_twig

from .conftest import xml


def _run_threads(workers):
    """Start, join, and surface the first exception from any worker."""
    errors: list[BaseException] = []

    def wrap(fn):
        def go():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - reraised below
                errors.append(exc)
        return go

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# Canonical views built lazily from many threads
# ---------------------------------------------------------------------------


def test_canonical_views_stay_correct_under_racing_first_calls():
    """Threads racing a document's first canonical_query calls may each
    build the pattern; every view handed out is still the canonical query
    of its node, and once the race is over repeated calls agree."""
    from repro.twig.generator import canonical_query_for_node

    # Large enough that a pattern build spans many thread switches.
    docs = [xml("<a>" + "<b><c/><d>x</d></b>" * (300 + i) + "</a>")
            for i in range(8)]
    engine = Engine()
    n_threads = 6
    rng = random.Random(0)
    plans = [[rng.sample(list(doc.nodes()), 3) for doc in docs]
             for _ in range(n_threads)]
    expected = {id(node): canonical_query_for_node(doc, node).canonical()
                for plan in plans for doc, nodes in zip(docs, plan)
                for node in nodes}
    start = threading.Barrier(n_threads, timeout=10)
    wrong: list[str] = []

    def asker(plan):
        def go():
            for doc, nodes in zip(docs, plan):
                start.wait()  # every thread's first call races the build
                for node in nodes:
                    view = engine.canonical_query(doc, node)
                    if view.canonical() != expected[id(node)]:
                        wrong.append(node.label)
        return go

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_threads([asker(plan) for plan in plans])
    finally:
        sys.setswitchinterval(interval)
    assert not wrong
    for doc in docs:
        for node in list(doc.nodes())[:50]:
            assert (engine.canonical_query(doc, node)
                    is engine.canonical_query(doc, node))


def test_shared_automaton_answers_correctly_under_racing_steps():
    """Threads step one engine-cached NFA whose memo starts empty; with
    the switch interval at 1 µs they race on its entries, and every
    answer still equals a fresh automaton's.  The memo fills within the
    first few words, so the race repeats on fresh automata."""
    import itertools

    from repro.graphdb.nfa import compile_regex

    text = "highway+.(national|local)?"
    labels = ("highway", "national", "local", "train")
    words = [w for n in range(5) for w in itertools.product(labels, repeat=n)]
    regex = PathQuery.parse(text).to_regex()
    expected = [compile_regex(regex).accepts(w) for w in words]
    n_threads = 6
    start = threading.Barrier(n_threads, timeout=10)
    wrong: list[int] = []

    def worker(nfa):
        def go():
            start.wait()
            answers = [nfa.accepts(w) for w in words]
            if answers != expected:
                wrong.append(1)
        return go

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(200):
            # A fresh query compiles a fresh automaton: its memo is empty.
            nfa = Engine().nfa(PathQuery.parse(text))
            _run_threads([worker(nfa) for _ in range(n_threads)])
    finally:
        sys.setswitchinterval(interval)
    assert not wrong


def test_engine_scan_answers_correctly_under_racing_first_use():
    """Threads decide words through ``Engine.accepts`` on one fresh path
    query, whose scan tables are not built yet; with the switch interval
    at 1 µs they race on building them, and every answer still equals
    the query's NFA's."""
    import itertools

    from repro.graphdb.nfa import compile_regex

    text = "highway+.(national|local)?.highway*"
    labels = ("highway", "national", "local", "train")
    words = [w for n in range(5) for w in itertools.product(labels, repeat=n)]
    nfa = compile_regex(PathQuery.parse(text).to_regex())
    expected = [nfa.accepts(w) for w in words]
    engine = Engine()
    n_threads = 6
    start = threading.Barrier(n_threads, timeout=10)
    wrong: list[int] = []

    def worker(query):
        def go():
            start.wait()
            answers = [engine.accepts(query, w) for w in words]
            if answers != expected:
                wrong.append(1)
        return go

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(200):
            # A fresh query has no scan tables yet.
            query = PathQuery.parse(text)
            _run_threads([worker(query) for _ in range(n_threads)])
    finally:
        sys.setswitchinterval(interval)
    assert not wrong


# ---------------------------------------------------------------------------
# LRUCache under contention
# ---------------------------------------------------------------------------


def test_lru_cache_bound_holds_under_concurrent_inserts():
    cache = LRUCache(maxsize=16)
    violations: list[int] = []

    def writer(seed: int):
        rng = random.Random(seed)

        def go():
            for i in range(600):
                cache.put((seed, i), i)
                cache.get((seed, rng.randrange(i + 1)))
                size = len(cache)
                if size > 16:
                    violations.append(size)
        return go

    _run_threads([writer(s) for s in range(6)])
    assert not violations
    assert len(cache) <= 16
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == 6 * 600


def test_lru_get_or_compute_is_consistent_under_races():
    cache = LRUCache(maxsize=64)
    results: dict[int, list[int]] = {i: [] for i in range(8)}

    def reader(seed: int):
        rng = random.Random(seed)

        def go():
            for _ in range(400):
                key = rng.randrange(8)
                results[key].append(
                    cache.get_or_compute(key, lambda k=key: k * 11))
        return go

    _run_threads([reader(s) for s in range(6)])
    for key, values in results.items():
        assert all(v == key * 11 for v in values)


# ---------------------------------------------------------------------------
# One engine, many threads: evaluate + mutate + invalidate + reset
# ---------------------------------------------------------------------------


def test_engine_hammer_mixed_evaluate_mutate_invalidate():
    engine = Engine(max_cached_queries=32, max_graph_results=64)
    docs = [xml("<a><b><c/></b><b/></a>") for _ in range(3)]
    graphs = []
    for _ in range(2):
        g = Graph()
        g.add_edge("x", "a", "y")
        g.add_edge("y", "a", "z")
        graphs.append(g)
    twig_q = parse_twig("//b")
    rpq_q = parse_regex("a+")

    # Every reachable state of each instance and its answer cardinality:
    # docs toggle between 2 and 3 <b/> children, graphs only gain edges.
    def doc_answers(doc) -> int:
        return len(Engine().evaluate_twig(twig_q, doc))

    def evaluator(seed: int):
        rng = random.Random(seed)

        def go():
            for _ in range(150):
                roll = rng.random()
                if roll < 0.45:
                    doc = rng.choice(docs)
                    answers = engine.evaluate_twig(twig_q, doc)
                    assert len(answers) in (2, 3)
                elif roll < 0.75:
                    g = rng.choice(graphs)
                    pairs = engine.evaluate_rpq(rpq_q, g)
                    assert {("x", "y"), ("x", "z"), ("y", "z")} <= pairs
                elif roll < 0.9:
                    engine.invalidate(rng.choice(docs))
                else:
                    engine.accepts(PathQuery.parse("a+"), ("a", "a"))
        return go

    def mutator(seed: int):
        rng = random.Random(seed)

        def go():
            for _ in range(40):
                doc = rng.choice(docs)
                root = doc.root
                # One atomic structural op, then the mutation contract.
                if len(root.children) > 2:
                    root.children.pop()
                else:
                    root.add(root.children[0].copy())
                doc.invalidate()
                g = rng.choice(graphs)
                g.add_edge("z", "a", f"w{rng.randrange(4)}")
        return go

    _run_threads([evaluator(s) for s in range(5)] + [mutator(99)])
    # No stale answers: once quiet, the shared engine agrees with a fresh
    # engine on every instance.
    for doc in docs:
        assert len(engine.evaluate_twig(twig_q, doc)) == doc_answers(doc)
    for g in graphs:
        assert engine.evaluate_rpq(rpq_q, g) == \
            Engine().evaluate_rpq(rpq_q, g)
    # Bounded caches stayed bounded.
    for indexed in engine._documents.values():
        assert len(indexed._query_cache) <= 32
    assert len(engine._nfas) <= 512


def test_concurrent_cold_acquisitions_share_one_index_per_instance():
    # Builds run under per-instance locks: racing threads must converge
    # on a single IndexedDocument per document, never two snapshots of
    # the same version.
    engine = Engine()
    docs = [xml("<a><b/><b/></a>") for _ in range(4)]
    seen: list[list] = [[] for _ in docs]

    def acquirer(seed: int):
        rng = random.Random(seed)

        def go():
            for _ in range(120):
                i = rng.randrange(len(docs))
                seen[i].append(engine.document(docs[i]))
        return go

    _run_threads([acquirer(s) for s in range(6)])
    for doc, indexes in zip(docs, seen):
        assert len({id(ix) for ix in indexes}) == 1
        assert indexes[0] is engine.document(doc)


def test_lookup_totals_count_every_concurrent_lookup():
    """Threads looking up in their own indexes all add to the engine's
    two shared totals; with the switch interval at 1 µs, a lost update
    would leave the totals short of the lookups made."""
    engine = Engine()
    n_threads, rounds = 6, 100
    queries = [parse_twig(q) for q in ("//b", "/a/b", "//c", "/a/b/c")]
    rpq_q = parse_regex("a+")
    start = threading.Barrier(n_threads, timeout=10)

    def worker():
        docs = [xml("<a><b><c/></b><b/></a>") for _ in range(2)]
        g = Graph()
        g.add_edge("x", "a", "y")
        g.add_edge("y", "a", "z")

        def go():
            start.wait()
            for _ in range(rounds):
                for doc in docs:
                    for query in queries:
                        engine.evaluate_twig(query, doc)  # one lookup
                engine.evaluate_rpq(rpq_q, g)  # one lookup per vertex
        return go

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_threads([worker() for _ in range(n_threads)])
    finally:
        sys.setswitchinterval(interval)
    stats = engine.stats()
    # Per thread, the first round misses once per (query, document) and
    # per source vertex; every later lookup hits.
    twig_misses = n_threads * 2 * len(queries)
    rpq_misses = n_threads * 3
    assert stats["twig_query_misses"] == twig_misses
    assert stats["twig_query_hits"] == twig_misses * (rounds - 1)
    assert stats["rpq_source_misses"] == rpq_misses
    assert stats["rpq_source_hits"] == rpq_misses * (rounds - 1)


def test_reset_engine_during_inflight_batches_is_safe():
    """Satellite regression: reset_engine() mid-batch must not crash workers."""
    reset_engine()
    engine = get_engine()
    docs = [xml("<a><b><c/></b><b/><d><b><c/></b></d></a>")
            for _ in range(6)]
    query = parse_twig("//b[c]")
    expected = [[id(n) for n in engine.evaluate_twig(query, d)]
                for d in docs]
    stop = threading.Event()

    def resetter():
        while not stop.is_set():
            reset_engine()

    def batcher():
        backend = LocalBackend(engine=engine)
        for _ in range(60):
            answers = backend.evaluate_twig_batch(query, docs)
            assert [[id(n) for n in a] for a in answers] == expected

    reset_thread = threading.Thread(target=resetter)
    reset_thread.start()
    try:
        _run_threads([batcher, batcher])
    finally:
        stop.set()
        reset_thread.join()
    reset_engine()


def test_mutation_mid_batch_is_all_pre_or_all_post_per_shard():
    """A mutation lands fully before or fully after a shard, never inside."""
    engine = Engine()
    doc = xml("<a><b><c/></b><b/></a>")
    queries = [parse_twig("//b") for _ in range(24)]  # one shard, 24 items
    pre = len(engine.evaluate_twig(queries[0], doc))
    doc.root.add(doc.root.children[0].copy())
    doc.invalidate()
    post = len(engine.evaluate_twig(queries[0], doc))
    assert pre != post

    stop = threading.Event()

    def toggler():
        while not stop.is_set():
            root = doc.root
            if len(root.children) > 2:
                root.children.pop()
            else:
                root.add(root.children[0].copy())
            doc.invalidate()

    failures: list[tuple] = []

    def batcher():
        evaluator = BatchEvaluator(engine=engine)
        workload = Workload.twig_queries(queries, doc)
        for _ in range(80):
            counts = {len(a) for a in evaluator.run(workload).answers}
            # All 24 answers come from one snapshot: a single count, and
            # it is one of the two reachable states.
            if len(counts) != 1 or not counts <= {pre, post}:
                failures.append(tuple(sorted(counts)))

    toggle_thread = threading.Thread(target=toggler)
    toggle_thread.start()
    try:
        _run_threads([batcher])
    finally:
        stop.set()
        toggle_thread.join()
    assert not failures


def test_graph_mutation_mid_batch_is_all_pre_or_all_post_per_shard():
    """The Graph half of the shard-atomicity contract: a growing graph's
    RPQ batch answers come from one adjacency snapshot per shard —
    somewhere between the base graph and the fully-grown one, and
    identical across all items of the shard."""
    engine = Engine()
    g = Graph()
    g.add_edge("x", "a", "y")
    g.add_edge("y", "a", "z")
    queries = [parse_regex("a+") for _ in range(16)]  # one graph, one shard
    base_pairs = engine.evaluate_rpq(queries[0], g)

    full = Graph()
    full.add_edge("x", "a", "y")
    full.add_edge("y", "a", "z")
    for k in range(3):
        full.add_edge("z", "a", f"w{k}")
    full_pairs = Engine().evaluate_rpq(queries[0], full)
    assert base_pairs < full_pairs

    stop = threading.Event()

    def grower():
        k = 0
        while not stop.is_set():
            g.add_edge("z", "a", f"w{k % 3}")  # monotone growth; each call
            k += 1                             # bumps the graph version

    failures: list[object] = []

    def batcher():
        evaluator = BatchEvaluator(engine=engine)
        workload = Workload([
            WorkloadItem(ItemKind.RPQ, q, g) for q in queries])
        for _ in range(80):
            answers = list(evaluator.run(workload).answers)
            distinct = {frozenset(a) for a in answers}
            if len(distinct) != 1:
                failures.append(("mixed shard", distinct))
                continue
            snapshot = answers[0]
            if not (base_pairs <= snapshot <= full_pairs):
                failures.append(("impossible state", snapshot))

    grow_thread = threading.Thread(target=grower)
    grow_thread.start()
    try:
        _run_threads([batcher])
    finally:
        stop.set()
        grow_thread.join()
    assert not failures
    assert engine.evaluate_rpq(queries[0], g) == full_pairs  # no staleness


# ---------------------------------------------------------------------------
# Sessions are backend-invariant (local / remote TCP)
# ---------------------------------------------------------------------------


def test_sessions_identical_on_local_and_remote_backends():
    """The backend seam's end-to-end contract, deterministic by
    construction (seeded RNGs, no wall-clock dependence): every session
    asks the same questions — in the same order — and learns the same
    query on LocalBackend and on RemoteBackend over a real TCP server."""
    from repro.learning.backend import LocalBackend, RemoteBackend
    from repro.serving import AsyncBatchEvaluator, ServerThread

    docs = [
        xml("<site><people><person><name>n</name><phone>1</phone></person>"
            "<person><name>m</name></person></people></site>"),
        xml("<site><people><person><name>o</name><phone>2</phone>"
            "</person></people></site>"),
    ]
    twig_goal = parse_twig("//person[phone]/name")
    g = Graph()
    g.add_edge("s", "road", "m")
    g.add_edge("m", "road", "t")
    g.add_edge("s", "rail", "t")
    g.add_edge("m", "rail", "t")
    path_goal = PathQuery.parse("road+")
    inst = make_join_instance(rng=3, goal_pairs=2, left_rows=8,
                              right_rows=8, domain=5)

    def run_all(backend):
        twig = InteractiveTwigSession(docs, twig_goal,
                                      backend=backend).run()
        path = InteractivePathSession(g, "s", "t", path_goal,
                                      backend=backend).run()
        join = InteractiveJoinSession(inst.left, inst.right, inst.goal,
                                      max_pool=60, rng=5,
                                      backend=backend).run()
        return twig, path, join

    baseline = run_all(LocalBackend(engine=Engine()))
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server:
        with RemoteBackend(*server.address) as backend:
            twig, path, join = run_all(backend)

    base_twig, base_path, base_join = baseline
    assert twig.query == base_twig.query
    assert twig.stats == base_twig.stats
    assert twig.stats.asked == base_twig.stats.asked
    assert path.query == base_path.query
    assert path.stats == base_path.stats
    assert path.stats.asked == base_path.stats.asked
    assert join.predicate == base_join.predicate
    assert join.stats == base_join.stats
    assert join.stats.asked == base_join.stats.asked


def test_eviction_under_concurrent_clients_stays_coherent():
    """The content-addressed store hammered by concurrent clients whose
    combined corpora cannot fit: refs keep missing, every miss negotiates
    a re-ship, and every client's answers stay identical to a local run —
    eviction churn is a performance event, never a correctness one."""
    from repro.learning.backend import LocalBackend, RemoteBackend
    from repro.serving import AsyncBatchEvaluator, InstanceStore, ServerThread

    n_clients = 4
    corpora = [
        [xml(f"<a><b/><x{i}{j}><b/></x{i}{j}></a>") for j in range(3)]
        for i in range(n_clients)
    ]
    query = parse_twig("//b")
    local = LocalBackend(engine=Engine())
    baselines = [
        [local.evaluate_twig_batch(query, [doc])[0] for doc in corpus]
        for corpus in corpora
    ]
    store = InstanceStore(max_bytes=150)  # a few tiny documents at most
    with ServerThread(AsyncBatchEvaluator(engine=Engine()),
                      instance_store=store) as server:
        def hammer(client_index):
            corpus = corpora[client_index]
            expected = baselines[client_index]
            with RemoteBackend(*server.address) as backend:
                for _ in range(5):
                    answers = backend.evaluate_twig_batch(query, corpus)
                    for got, want, doc in zip(answers, expected, corpus):
                        assert len(got) == len(want)
                        assert all(g is w for g, w in zip(got, want)), \
                            f"client {client_index} got foreign nodes"

        _run_threads([lambda i=i: hammer(i) for i in range(n_clients)])
    stats = store.stats()
    assert stats["evictions"] > 0  # the corpora genuinely did not fit
    # The budget holds (a single oversized entry is the one exception).
    assert stats["bytes"] <= stats["max_bytes"] or stats["instances"] == 1


def test_admission_gate_queues_fifo_and_never_errors():
    """max_inflight_shards=1 serialises shard evaluation across every
    connection: concurrent clients with multi-shard workloads all
    complete with the right answers — over-limit submissions queue, they
    never fail — and the gate drains back to zero in the stats frame."""
    from repro.serving import (
        AsyncBatchEvaluator,
        ServerThread,
        Workload,
        WorkloadClient,
    )

    docs = [xml("<a><b/></a>"), xml("<a><b/><b/></a>"),
            xml("<a><c><b/></c></a>")]
    query = parse_twig("//b")
    expected = [1, 2, 1]
    with ServerThread(AsyncBatchEvaluator(engine=Engine()),
                      max_inflight_shards=1) as server:
        def one_client():
            with WorkloadClient(*server.address) as client:
                for _ in range(4):
                    result = client.run(Workload.twig(query, docs))
                    assert [len(a) for a in result.answers] == expected

        _run_threads([one_client for _ in range(4)])
        with WorkloadClient(*server.address) as client:
            admission = client.stats()["admission"]
    assert admission == {"max_inflight_shards": 1, "in_flight": 0}


def test_four_connections_through_one_slot_match_local_answers():
    """Four connections share one admission slot: each holds it for one
    shard at a time, so all of them complete, and every answer is the
    node objects LocalBackend returns for the same documents."""
    from repro.serving import AsyncBatchEvaluator, ServerThread, WorkloadClient

    query = parse_twig("//b")
    corpora = [[xml(f"<a><b/><c><b/></c><i>{i}-{j}</i></a>")
                for j in range(4)] for i in range(4)]
    local = LocalBackend(engine=Engine())
    expected = [local.evaluate_twig_batch(query, corpus)
                for corpus in corpora]
    results: dict[int, list] = {}
    with ServerThread(AsyncBatchEvaluator(engine=Engine()),
                      max_inflight_shards=1) as server:
        def one_client(i):
            with WorkloadClient(*server.address) as client:
                results[i] = list(
                    client.run(Workload.twig(query, corpora[i])).answers)

        _run_threads([lambda i=i: one_client(i) for i in range(4)])
    assert sorted(results) == [0, 1, 2, 3]
    for i, answers in results.items():
        assert len(answers) == len(expected[i])
        for got, want in zip(answers, expected[i]):
            assert len(got) == len(want) == 2
            assert all(g is w for g, w in zip(got, want))
