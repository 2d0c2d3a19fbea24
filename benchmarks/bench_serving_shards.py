"""Sharded batch serving — throughput of the sessions' re-evaluation loop.

The interactive sessions' per-interaction hot path: classify every pending
candidate node against the current hypothesis, over a corpus of N
documents.  Before :mod:`repro.serving`, a session ran one
``engine.selects`` call per candidate — each call re-canonicalises the
hypothesis, re-materialises the document's answer list, and re-scans it
for one node.  The batch service evaluates the hypothesis **once per
document shard** and classifies all candidates against cached answer
id-sets.

Acceptance bar: over N >= 8 instances, the batched round on the serial
executor is at least 2x faster than the per-candidate loop, with
classifications and answer lists identical to the serial engine path on
every executor.

The process executor is measured honestly for the record: it ships each
shard through a pickle round-trip, so on warm microsecond-scale rounds
(and on this single-core container, where no real parallelism exists) it
loses badly — its value is cold fan-out on multi-core hosts, which the
cold-build row tracks.
"""

from __future__ import annotations

import time

from repro.datasets.xmark import generate_xmark
from repro.engine import get_engine, reset_engine
from repro.learning.backend import BatchedBackend
from repro.serving import (
    BatchEvaluator,
    ProcessExecutor,
    SerialExecutor,
    Workload,
)
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

    process_executor = ProcessExecutor(2)
    executors = [SerialExecutor(), process_executor]

    # Parity first: on every executor, batch answers are the *same node
    # objects* in document order as the serial engine loop, and candidate
    # classifications match the serial per-candidate loop.
    serial_answers = [engine.evaluate_twig(hypothesis, doc) for doc in docs]
    serial_flags = [engine.selects(hypothesis, doc, node)
                    for doc, node in pool]
    for executor in executors:
        backend = BatchedBackend(evaluator=BatchEvaluator(executor=executor))
        assert _identical_answer_lists(
            backend.evaluate_twig_batch(hypothesis, docs), serial_answers)
        assert backend.selects_batch(hypothesis, pool) == serial_flags

    # Serial loop: the session's pre-serving path, one engine.selects per
    # candidate (warm caches — this is steady interactive state).
    start = time.perf_counter()
    for _ in range(ROUNDS):
        for doc, node in pool:
            engine.selects(hypothesis, doc, node)
    serial_per_round = (time.perf_counter() - start) / ROUNDS

    # Batched rounds per executor (same warm state).
    per_round: dict[str, float] = {}
    for executor in executors:
        backend = BatchedBackend(evaluator=BatchEvaluator(executor=executor))
        backend.selects_batch(hypothesis, pool)  # warm worker pool + caches
        start = time.perf_counter()
        for _ in range(ROUNDS):
            backend.selects_batch(hypothesis, pool)
        per_round[executor.name] = (time.perf_counter() - start) / ROUNDS

    warm_batch = benchmark.pedantic(
        lambda: BatchedBackend().selects_batch(hypothesis, pool),
        rounds=ROUNDS, iterations=1)
    assert warm_batch == serial_flags

    # Cold fan-out for the record: index builds dominate; the process pool
    # only pays off here when real cores exist.
    def cold_serial() -> None:
        reset_engine()
        for doc in docs:
            engine.evaluate_twig(hypothesis, doc)

    start = time.perf_counter()
    cold_serial()
    cold_serial_s = time.perf_counter() - start
    evaluator = BatchEvaluator(executor=process_executor)
    reset_engine()
    start = time.perf_counter()
    evaluator.run(Workload.twig(hypothesis, docs))
    cold_process_s = time.perf_counter() - start

    speedups = {name: serial_per_round / t for name, t in per_round.items()}
    rows = [
        ("serial per-candidate loop (pre-serving sessions)",
         f"{serial_per_round * 1e3:.3f}", "1.0x"),
    ]
    for name in ("serial", "process"):
        rows.append((f"batched round, {name} executor",
                     f"{per_round[name] * 1e3:.3f}",
                     f"{speedups[name]:.1f}x"))
    rows.append(("cold corpus, serial engine loop",
                 f"{cold_serial_s * 1e3:.3f}", ""))
    rows.append(("cold corpus, process fan-out",
                 f"{cold_process_s * 1e3:.3f}", ""))
    table = format_table(
        ["path", "ms / interaction round", "speedup"],
        rows,
        title=(f"sharded serving: {len(pool)} candidates over {N_DOCS} "
               f"XMark documents x {ROUNDS} rounds"),
    )
    record_report("SERVING-shards batched session round", table,
                  metrics={"serial_speedup": speedups["serial"],
                           "process_speedup": speedups["process"]})
    for executor in executors:
        executor.close()

    # The acceptance bar: the batched interaction round on the serial
    # executor is >= 2x the per-candidate loop (the process path needs
    # real cores for warm microbatches, so it is reported, not gated).
    assert speedups["serial"] >= 2.0, (
        f"serial batched round only {speedups['serial']:.1f}x the "
        "per-candidate loop")


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
    with ProcessExecutor(2) as processes:
        assert list(BatchEvaluator(
            executor=processes).run(workload).answers) == serial
    evaluator = BatchEvaluator()
    assert list(evaluator.run(workload).answers) == serial
    answers = benchmark(lambda: list(evaluator.run(workload).answers))
    assert answers == serial
