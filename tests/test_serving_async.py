"""The async facade and the streaming APIs: answers must be identical to
the synchronous batch path on every executor, and streaming must actually
stream — first answers surface before the batch completes.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.graphdb.graph import Graph
from repro.graphdb.pathquery import PathQuery
from repro.graphdb.regex import parse_regex
from repro.learning.backend import BatchedBackend
from repro.learning.xml_session import InteractiveTwigSession
from repro.serving import (
    AsyncBatchEvaluator,
    BatchEvaluator,
    ProcessExecutor,
    SerialExecutor,
    ShardAnswer,
    Workload,
)
from repro.serving.executors import ShardExecutor
from repro.twig.parse import parse_twig
from repro.xmltree.tree import XTree

from .conftest import (
    identical_answers,
    in_process_backends,
    twig_queries,
    xml,
    xnode_trees,
)


class RecordingSerialExecutor(SerialExecutor):
    """Counts submissions — the probe for lazy, genuinely-streamed work."""

    name = "recording"

    def __init__(self) -> None:
        self.submits = 0

    def submit(self, fn, *args):
        self.submits += 1
        return super().submit(fn, *args)



def _mixed_workload():
    docs = [xml("<a><b><c/></b><b/></a>"), xml("<a><d><b><c/></b></d></a>")]
    g = Graph()
    g.add_edge("x", "a", "y")
    g.add_edge("y", "a", "z")
    twig_q = parse_twig("//b[c]")
    rpq_q = parse_regex("a+")
    pq = PathQuery.parse("a+.b?")
    words = [("a",), ("b",), ("a", "b")]
    workload = Workload.twig(twig_q, docs) + Workload.rpq(rpq_q, [g]) \
        + Workload.accepts(pq, words)
    return workload


@pytest.fixture(scope="module")
def process_executor():
    with ProcessExecutor(2) as executor:
        yield executor


# ---------------------------------------------------------------------------
# AsyncBatchEvaluator: parity with the synchronous service
# ---------------------------------------------------------------------------


def test_async_run_matches_sync_on_every_executor(process_executor):
    workload = _mixed_workload()
    engine = Engine()
    serial = BatchEvaluator(engine=engine).run(workload)
    for executor in (SerialExecutor(), process_executor):
        evaluator = AsyncBatchEvaluator(engine=engine, executor=executor)
        result = asyncio.run(evaluator.run(workload))
        assert len(result) == len(serial)
        # Twig answers: same node objects, same order.
        assert identical_answers(result.answers[:2], serial.answers[:2]), \
            executor.name
        assert list(result.answers[2:]) == list(serial.answers[2:]), \
            executor.name


@settings(max_examples=25, deadline=None)
@given(st.lists(xnode_trees(max_depth=3, max_children=3), min_size=1,
                max_size=4),
       twig_queries(max_depth=2))
def test_async_twig_batch_property_parity(trees, query):
    docs = [XTree(t) for t in trees]
    engine = Engine()
    serial = [engine.evaluate_twig(query, d) for d in docs]
    evaluator = AsyncBatchEvaluator(engine=engine)
    batch = asyncio.run(evaluator.run(Workload.twig(query, docs))).answers
    assert identical_answers(batch, serial)


def test_async_stream_partitions_item_positions(process_executor):
    workload = _mixed_workload()
    engine = Engine()
    serial = BatchEvaluator(engine=engine).run(workload)
    for executor in (SerialExecutor(), process_executor):
        evaluator = AsyncBatchEvaluator(engine=engine, executor=executor)

        async def collect():
            return [sa async for sa in evaluator.stream(workload)]

        shard_answers = asyncio.run(collect())
        positions = sorted(p for sa in shard_answers for p, _ in sa)
        assert positions == list(range(len(workload))), executor.name
        merged: list = [None] * len(workload)
        for sa in shard_answers:
            assert isinstance(sa, ShardAnswer)
            for position, answer in sa:
                merged[position] = answer
        assert identical_answers(merged[:2], serial.answers[:2]), executor.name
        assert merged[2:] == list(serial.answers[2:]), executor.name


def test_async_empty_workload():
    evaluator = AsyncBatchEvaluator(engine=Engine())
    result = asyncio.run(evaluator.run(Workload()))
    assert len(result) == 0 and result.n_shards == 0


def test_async_first_answer_and_ctor_validation():
    docs = [xml("<a><b/></a>"), xml("<a><b/><b/></a>")]
    evaluator = AsyncBatchEvaluator(engine=Engine())
    first = asyncio.run(
        evaluator.first_answer(Workload.twig(parse_twig("//b"), docs)))
    assert len(first.answers[0]) in (1, 2)
    with pytest.raises(ValueError):
        asyncio.run(evaluator.first_answer(Workload()))
    with pytest.raises(ValueError):
        AsyncBatchEvaluator(engine=Engine(),
                            evaluator=BatchEvaluator(engine=Engine()))


def test_async_stream_yields_before_batch_completes():
    """With a width-1 executor, the first shard surfaces while later
    shards are not even submitted yet — streaming, not batch-then-replay."""
    docs = [xml(f"<a>{'<b/>' * (i + 1)}</a>") for i in range(5)]
    recorder = RecordingSerialExecutor()
    evaluator = AsyncBatchEvaluator(engine=Engine(), executor=recorder)
    workload = Workload.twig(parse_twig("//b"), docs)
    seen_at_first: list[int] = []

    async def consume():
        async for _ in evaluator.stream(workload):
            if not seen_at_first:
                seen_at_first.append(recorder.submits)

    asyncio.run(consume())
    assert seen_at_first[0] < len(docs)
    assert recorder.submits == len(docs)


def test_async_isolated_mutation_guard_still_raises():
    """The process path's refuse-to-decode-across-versions contract
    survives the async facade."""
    doc = xml("<a><b><c/></b><b/></a>")

    class MutatingIsolatedExecutor(ShardExecutor):
        isolated = True
        name = "mutating"

        def submit(self, fn, *args):
            doc.root.add(doc.root.children[0].copy())
            doc.invalidate()
            return super().submit(fn, *args)

    evaluator = AsyncBatchEvaluator(engine=Engine(),
                                    executor=MutatingIsolatedExecutor())
    with pytest.raises(RuntimeError, match="mutated while a process batch"):
        asyncio.run(evaluator.run(
            Workload.twig(parse_twig("//b"), [doc])))


# ---------------------------------------------------------------------------
# Synchronous streaming APIs (what the sessions consume)
# ---------------------------------------------------------------------------


def test_run_stream_reassembles_run_exactly(process_executor):
    workload = _mixed_workload()
    engine = Engine()
    serial = BatchEvaluator(engine=engine).run(workload)
    for executor in (SerialExecutor(), process_executor):
        evaluator = BatchEvaluator(engine=engine, executor=executor)
        merged: list = [None] * len(workload)
        n_shards = 0
        for shard_answer in evaluator.run_stream(workload):
            n_shards += 1
            for position, answer in shard_answer:
                merged[position] = answer
        assert n_shards == len(workload.shards())
        assert identical_answers(merged[:2], serial.answers[:2]), executor.name
        assert merged[2:] == list(serial.answers[2:]), executor.name


def test_selects_stream_matches_selects_batch(process_executor):
    docs = [xml("<a><b><c/></b><b/></a>"), xml("<a><b><c/><c/></b></a>"),
            xml("<a/>")]
    query = parse_twig("//b[c]")
    engine = Engine()
    candidates = [(d, n) for d in docs for n in d.nodes()]
    for backend in in_process_backends(engine, process_executor):
        expected = backend.selects_batch(query, candidates)
        flags: list = [None] * len(candidates)
        groups = list(backend.selects_stream(query, candidates))
        assert len(groups) == len(docs)  # one group per distinct document
        for group in groups:
            for position, sel in group:
                assert flags[position] is None  # exactly-once coverage
                flags[position] = sel
        assert flags == expected
        # None hypothesis: one all-False group, like selects_batch.
        none_groups = list(backend.selects_stream(None, candidates))
        assert [f for g in none_groups for _, f in g] == \
            [False] * len(candidates)
        assert list(backend.selects_stream(query, [])) == []


def test_selects_stream_first_group_before_batch_completes():
    """The acceptance bar: the streaming session API yields its first
    shard while the batch is still incomplete."""
    docs = [xml(f"<a>{'<b/>' * (i + 1)}</a>") for i in range(4)]
    candidates = [(d, n) for d in docs for n in d.nodes()]
    recorder = RecordingSerialExecutor()
    backend = BatchedBackend(engine=Engine(), executor=recorder)
    stream = backend.selects_stream(parse_twig("//b"), candidates)
    first_group = next(stream)
    assert first_group  # real answers arrived...
    assert recorder.submits < len(docs)  # ...before the batch finished
    rest = list(stream)
    assert recorder.submits == len(docs)
    flags = [None] * len(candidates)
    for position, sel in (pair for g in [first_group, *rest] for pair in g):
        flags[position] = sel
    assert flags == backend.selects_batch(parse_twig("//b"), candidates)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.lists(st.sampled_from("ab"), max_size=4), min_size=1,
                max_size=140))
def test_accepts_stream_matches_accepts_batch(process_executor, words):
    query = PathQuery.parse("a+.b?")
    engine = Engine()
    tuples = [tuple(w) for w in words]
    for backend in in_process_backends(engine, process_executor):
        expected = backend.accepts_batch(query, tuples)
        flags: list = [None] * len(tuples)
        for group in backend.accepts_stream(query, tuples):
            for position, acc in group:
                assert flags[position] is None
                flags[position] = acc
        assert flags == expected


def test_map_stream_matches_map(process_executor):
    items = list(range(37))
    for backend in in_process_backends(Engine(), process_executor):
        out: list = [None] * len(items)
        groups = list(backend.map_stream(lambda x: x * x, items))
        assert len(groups) > 1  # finer than one monolithic chunk
        for group in groups:
            for position, value in group:
                assert out[position] is None
                out[position] = value
        assert out == [x * x for x in items]
        assert list(backend.map_stream(lambda x: x, [])) == []


def test_streaming_session_identical_to_batch_baseline():
    """A session on the streamed classification path asks the exact same
    questions and learns the exact same query as the serial baseline."""
    docs = [xml("<site><people><person><name>a</name></person>"
                "<person><name>b</name><phone>1</phone></person>"
                "</people></site>"),
            xml("<site><people><person><phone>2</phone></person>"
                "</people></site>")]
    goal = parse_twig("//person[phone]")
    baseline = InteractiveTwigSession(
        docs, goal, backend=BatchedBackend(engine=Engine())).run()
    recorder = RecordingSerialExecutor()
    streamed = InteractiveTwigSession(
        docs, goal,
        backend=BatchedBackend(engine=Engine(), executor=recorder)).run()
    assert streamed.query == baseline.query
    assert streamed.stats.questions == baseline.stats.questions
    assert streamed.stats.implied_positive == baseline.stats.implied_positive
    assert streamed.stats.implied_negative == baseline.stats.implied_negative
    assert recorder.submits > 0  # the rounds really ran through the stream


# ---------------------------------------------------------------------------
# Executor width validation (the silent-fallback bugfix)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("width", [0, -1, -8])
def test_process_executor_rejects_nonpositive_width(width):
    with pytest.raises(ValueError, match="max_workers must be a positive"):
        ProcessExecutor(width)


def test_explicit_one_worker_is_respected():
    with ProcessExecutor(1) as executor:
        assert executor.parallelism() == 1
        assert executor.map(abs, [-1, 2]) == [1, 2]


def test_base_submit_runs_inline_and_carries_exceptions():
    executor = SerialExecutor()
    future = executor.submit(lambda x: x + 1, 41)
    assert future.done() and future.result() == 42
    failing = executor.submit(lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        failing.result()


def test_gated_stream_yields_completed_shards_while_queued():
    """The admission gate bounds concurrency, never streaming latency: a
    completed shard's answer must be yielded even while the submission
    of the next shard is still queued on the gate.  Deterministic via
    hand-completed futures — no sleeps.  Regression: the submission loop
    used to block on ``gate.acquire()`` (or keep submitting up to the
    executor width) before collecting finished shards, so a gated server
    degraded to near-batch latency."""
    import concurrent.futures

    from repro.serving import ShardGate, Workload

    docs = [xml(f"<a><b{i}/></a>") for i in range(3)]
    workload = Workload.twig(parse_twig("//a"), docs)

    class WideIsolatedExecutor(ShardExecutor):
        # Wider than the gate, and isolated so the facade awaits the
        # plan's futures instead of offloading their submission.
        isolated = True
        name = "wide"

        def parallelism(self):
            return 4

    async def main():
        with WideIsolatedExecutor() as executor:
            evaluator = AsyncBatchEvaluator(engine=Engine(),
                                            executor=executor)
            futures = [concurrent.futures.Future() for _ in range(3)]

            def fake_plan(shards, *, positions_native=False):
                assert len(shards) == 3
                return (lambda i: futures[i]), (lambda i, raw: raw)

            evaluator.sync._shard_plan = fake_plan
            gate = ShardGate(1)
            stream = evaluator.stream(workload, gate=gate)
            try:
                # Only shard 0 fits the gate; complete it while shards
                # 1 and 2 are still queued — its answer must arrive.
                futures[0].set_result(("answer-0",))
                first = await asyncio.wait_for(anext(stream), timeout=5)
                assert first.answers == ("answer-0",)
                assert not futures[2].done()
                futures[1].set_result(("answer-1",))
                second = await asyncio.wait_for(anext(stream), timeout=5)
                assert second.answers == ("answer-1",)
                futures[2].set_result(("answer-2",))
                third = await asyncio.wait_for(anext(stream), timeout=5)
                assert third.answers == ("answer-2",)
            finally:
                await stream.aclose()
            assert gate.in_flight == 0

    asyncio.run(main())
