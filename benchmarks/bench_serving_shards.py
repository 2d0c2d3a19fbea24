"""Sharded batch serving — throughput of the sessions' re-evaluation loop.

The interactive sessions' per-interaction hot path: classify every pending
candidate node against the current hypothesis, over a corpus of N
documents.  Before :mod:`repro.serving`, a session ran one
``engine.selects`` call per candidate — each call re-canonicalises the
hypothesis, re-materialises the document's answer list, and re-scans it
for one node.  The batch service evaluates the hypothesis **once per
document shard** and classifies all candidates against cached answer
id-sets.

Acceptance bar: over N >= 8 instances, the batched round on
``LocalBackend`` is at least 2x faster than the per-candidate loop, with
classifications and answer lists identical to the serial engine path.
"""

from __future__ import annotations

import time

from repro.datasets.xmark import generate_xmark
from repro.engine import get_engine, reset_engine
from repro.learning.backend import LocalBackend
from repro.serving import BatchEvaluator, Workload
from repro.twig.parse import parse_twig
from repro.util.tables import format_table

from .conftest import record_report

N_DOCS = 16
SCALE = 0.08
HYPOTHESIS = "//person[profile/gender]/name"
CANDIDATE_LABELS = {"name", "date", "price", "keyword"}
ROUNDS = 30


def _corpus():
    docs = [generate_xmark(scale=SCALE, rng=100 + i) for i in range(N_DOCS)]
    pool = [(doc, node) for doc in docs for node in doc.nodes()
            if node.label in CANDIDATE_LABELS]
    return docs, pool


def _identical_answer_lists(batch, serial) -> bool:
    return all(
        len(a) == len(b) and all(x is y for x, y in zip(a, b))
        for a, b in zip(batch, serial)
    )


def test_serving_shard_throughput(benchmark):
    docs, pool = _corpus()
    assert len(docs) >= 8 and len(pool) >= 100
    hypothesis = parse_twig(HYPOTHESIS)
    engine = get_engine()
    reset_engine()

    # Parity first: batch answers are the *same node objects* in
    # document order as the serial engine loop, and candidate
    # classifications match the serial per-candidate loop.
    serial_answers = [engine.evaluate_twig(hypothesis, doc) for doc in docs]
    serial_flags = [engine.selects(hypothesis, doc, node)
                    for doc, node in pool]
    backend = LocalBackend()
    assert _identical_answer_lists(
        backend.evaluate_twig_batch(hypothesis, docs), serial_answers)
    assert backend.selects_batch(hypothesis, pool) == serial_flags

    # Serial loop: the session's pre-serving path, one engine.selects per
    # candidate (warm caches — this is steady interactive state).
    start = time.perf_counter()
    for _ in range(ROUNDS):
        for doc, node in pool:
            engine.selects(hypothesis, doc, node)
    loop_per_round = (time.perf_counter() - start) / ROUNDS

    # Batched rounds on the same warm state.
    start = time.perf_counter()
    for _ in range(ROUNDS):
        backend.selects_batch(hypothesis, pool)
    batched_per_round = (time.perf_counter() - start) / ROUNDS

    warm_batch = benchmark.pedantic(
        lambda: LocalBackend().selects_batch(hypothesis, pool),
        rounds=ROUNDS, iterations=1)
    assert warm_batch == serial_flags

    speedup = loop_per_round / batched_per_round
    table = format_table(
        ["path", "ms / interaction round", "speedup"],
        [("serial per-candidate loop (pre-serving sessions)",
          f"{loop_per_round * 1e3:.3f}", "1.0x"),
         ("batched round, LocalBackend",
          f"{batched_per_round * 1e3:.3f}", f"{speedup:.1f}x")],
        title=(f"sharded serving: {len(pool)} candidates over {N_DOCS} "
               f"XMark documents x {ROUNDS} rounds"),
    )
    record_report("SERVING-shards batched session round", table,
                  metrics={"loop_ms": loop_per_round * 1e3,
                           "batched_ms": batched_per_round * 1e3,
                           "serial_speedup": speedup})

    # The acceptance bar: the batched interaction round is >= 2x the
    # per-candidate loop.
    assert speedup >= 2.0, (
        f"batched round only {speedup:.1f}x the per-candidate loop")


def test_serving_rpq_batch_parity(benchmark):
    """RPQ batches: parity over many graphs plus a warm-round number."""
    from repro.graphdb.geo import make_geo_graph
    from repro.graphdb.regex import parse_regex

    graphs = [make_geo_graph(rng=i, width=5, height=4) for i in range(8)]
    query = parse_regex("highway+.(national|local)?")
    engine = get_engine()
    reset_engine()
    serial = [engine.evaluate_rpq(query, g) for g in graphs]
    workload = Workload.rpq(query, graphs)
    evaluator = BatchEvaluator()
    assert list(evaluator.run(workload).answers) == serial
    answers = benchmark(lambda: list(evaluator.run(workload).answers))
    assert answers == serial
