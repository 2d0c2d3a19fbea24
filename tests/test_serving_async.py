"""The async facade and the streaming APIs: answers must be identical to
the synchronous batch path, and streaming must actually stream — first
answers surface before later shards are evaluated.
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
from repro.learning.backend import LocalBackend
from repro.learning.xml_session import InteractiveTwigSession
from repro.serving import (
    AsyncBatchEvaluator,
    BatchEvaluator,
    ShardAnswer,
    ShardGate,
    Workload,
    WorkloadResult,
)
from repro.twig.parse import parse_twig
from repro.xmltree.tree import XTree

from .conftest import (
    identical_answers,
    twig_queries,
    xml,
    xnode_trees,
)


class RecordingEvaluator(BatchEvaluator):
    """Counts evaluated shards — the probe for lazy, genuinely-streamed
    work."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.evaluated = 0

    def _eval_shard(self, shard, twig_keys, positions_native=False):
        self.evaluated += 1
        return super()._eval_shard(shard, twig_keys, positions_native)


def _recording_backend() -> tuple[LocalBackend, RecordingEvaluator]:
    backend = LocalBackend(engine=Engine())
    backend.evaluator = recorder = RecordingEvaluator(engine=backend.engine)
    return backend, recorder


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


# ---------------------------------------------------------------------------
# AsyncBatchEvaluator: parity with the synchronous service
# ---------------------------------------------------------------------------


def test_async_run_matches_sync_on_every_executor():
    workload = _mixed_workload()
    engine = Engine()
    serial = BatchEvaluator(engine=engine).run(workload)
    result = asyncio.run(AsyncBatchEvaluator(engine=engine).run(workload))
    assert len(result) == len(serial)
    assert result.n_shards == serial.n_shards
    # Twig answers: same node objects, same order.
    assert identical_answers(result.answers[:2], serial.answers[:2])
    assert list(result.answers[2:]) == list(serial.answers[2:])


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


def test_async_stream_partitions_item_positions():
    workload = _mixed_workload()
    engine = Engine()
    serial = BatchEvaluator(engine=engine).run(workload)
    evaluator = AsyncBatchEvaluator(engine=engine)

    async def collect():
        return [sa async for sa in evaluator.stream(workload)]

    shard_answers = asyncio.run(collect())
    positions = sorted(p for sa in shard_answers for p, _ in sa)
    assert positions == list(range(len(workload)))
    merged: list = [None] * len(workload)
    for sa in shard_answers:
        assert isinstance(sa, ShardAnswer)
        for position, answer in sa:
            merged[position] = answer
    assert identical_answers(merged[:2], serial.answers[:2])
    assert merged[2:] == list(serial.answers[2:])


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
    """The first shard surfaces while later shards are not even evaluated
    yet — streaming, not batch-then-replay."""
    docs = [xml(f"<a>{'<b/>' * (i + 1)}</a>") for i in range(5)]
    recorder = RecordingEvaluator(engine=Engine())
    evaluator = AsyncBatchEvaluator(evaluator=recorder)
    workload = Workload.twig(parse_twig("//b"), docs)
    seen_at_first: list[int] = []

    async def consume():
        async for _ in evaluator.stream(workload):
            if not seen_at_first:
                seen_at_first.append(recorder.evaluated)

    asyncio.run(consume())
    assert seen_at_first[0] < len(docs)
    assert recorder.evaluated == len(docs)


# ---------------------------------------------------------------------------
# Synchronous streaming APIs (what every backend round runs through)
# ---------------------------------------------------------------------------


def test_run_stream_reassembles_run_exactly():
    workload = _mixed_workload()
    engine = Engine()
    evaluator = BatchEvaluator(engine=engine)
    serial = evaluator.run(workload)
    merged: list = [None] * len(workload)
    n_shards = 0
    for shard_answer in evaluator.run_stream(workload):
        n_shards += 1
        for position, answer in shard_answer:
            merged[position] = answer
    assert n_shards == len(workload.shards())
    assert identical_answers(merged[:2], serial.answers[:2])
    assert merged[2:] == list(serial.answers[2:])


def test_local_stream_first_shard_before_batch_completes():
    """The acceptance bar: a backend's stream yields its first shard
    while the batch is still incomplete."""
    docs = [xml(f"<a>{'<b/>' * (i + 1)}</a>") for i in range(4)]
    workload = Workload.twig(parse_twig("//b"), docs)
    backend, recorder = _recording_backend()
    stream = backend.stream(workload)
    first_shard = next(stream)
    assert first_shard.answers[0]  # real answers arrived...
    assert recorder.evaluated < len(docs)  # ...before the batch finished
    rest = list(stream)
    assert recorder.evaluated == len(docs)
    merged = WorkloadResult.assemble(workload, [first_shard, *rest])
    assert identical_answers(merged.answers, backend.run(workload).answers)


def test_streaming_session_identical_to_batch_baseline():
    """A session whose rounds run through the backend's stream asks the
    exact same questions and learns the exact same query as the serial
    baseline."""
    docs = [xml("<site><people><person><name>a</name></person>"
                "<person><name>b</name><phone>1</phone></person>"
                "</people></site>"),
            xml("<site><people><person><phone>2</phone></person>"
                "</people></site>")]
    goal = parse_twig("//person[phone]")
    baseline = InteractiveTwigSession(
        docs, goal, backend=LocalBackend(engine=Engine())).run()
    backend, recorder = _recording_backend()
    streamed = InteractiveTwigSession(docs, goal, backend=backend).run()
    assert streamed.query == baseline.query
    assert streamed.stats.questions == baseline.stats.questions
    assert streamed.stats.implied_positive == baseline.stats.implied_positive
    assert streamed.stats.implied_negative == baseline.stats.implied_negative
    assert recorder.evaluated > 0  # the rounds really ran through the stream


# ---------------------------------------------------------------------------
# Admission: one stream holds at most one gate slot
# ---------------------------------------------------------------------------


def test_gated_stream_holds_no_slot_at_any_yield():
    """A gated stream acquires one slot per shard and gives it back
    before yielding that shard's answer, so no slot is ever held while
    the consumer works — the invariant that lets a server admit every
    connection through one FIFO gate without a per-connection quota."""
    docs = [xml(f"<a><b{i}/></a>") for i in range(4)]
    workload = Workload.twig(parse_twig("//a"), docs)
    gate = ShardGate(1)
    evaluator = AsyncBatchEvaluator(engine=Engine())

    async def main():
        in_flight_at_yield = []
        async for _ in evaluator.stream(workload, gate=gate):
            in_flight_at_yield.append(gate.in_flight)
        return in_flight_at_yield

    assert asyncio.run(main()) == [0] * len(docs)
    assert gate.in_flight == 0
