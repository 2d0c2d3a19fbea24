"""Async + network serving — round-trip cost and streamed-answer latency.

Three numbers frame the new front-end:

* **async round trip** — ``asyncio.run(AsyncBatchEvaluator.run(w))``
  versus the synchronous ``BatchEvaluator.run(w)``: the facade's
  event-loop scheduling overhead on a warm corpus (answers are asserted
  identical first);
* **streamed first answer** — how long until the *first* shard's answers
  are usable versus waiting on the whole batch: the latency win the
  streaming session APIs buy (shards evaluate one at a time, so the
  ratio is deterministic, ~1/N of the batch);
* **TCP round trip** — the same workload through the wire format, a
  localhost socket, and a server: what a remote client actually pays
  (JSON encode + evaluate + decode), with answers asserted identical to
  the local path, node objects included.
"""

from __future__ import annotations

import asyncio
import time

from repro.datasets.xmark import generate_xmark
from repro.engine import Engine, get_engine
from repro.serving import (
    AsyncBatchEvaluator,
    BatchEvaluator,
    ServerThread,
    Workload,
    WorkloadClient,
)
from repro.twig.parse import parse_twig
from repro.util.tables import format_table

from .conftest import record_report

N_DOCS = 12
SCALE = 0.05
HYPOTHESIS = "//person[profile/gender]/name"
ROUNDS = 20


def _corpus():
    return [generate_xmark(scale=SCALE, rng=300 + i) for i in range(N_DOCS)]


def _identical(batch, serial) -> bool:
    return all(
        len(a) == len(b) and all(x is y for x, y in zip(a, b))
        for a, b in zip(batch, serial)
    )


def _async_round(benchmark) -> tuple[float, float]:
    """Time the sync, async and first-answer rounds, report them, assert
    answer parity, and return ``(first answer, full batch)`` seconds per
    round on the async path."""
    docs = _corpus()
    query = parse_twig(HYPOTHESIS)
    workload = Workload.twig(query, docs)
    engine = get_engine()
    sync_evaluator = BatchEvaluator(engine=engine)
    serial_answers = sync_evaluator.run(workload).answers

    async_evaluator = AsyncBatchEvaluator(engine=engine)
    # Parity before timing: identical node objects on the async path.
    assert _identical(
        asyncio.run(async_evaluator.run(workload)).answers, serial_answers)

    start = time.perf_counter()
    for _ in range(ROUNDS):
        sync_evaluator.run(workload)
    sync_per_round = (time.perf_counter() - start) / ROUNDS

    start = time.perf_counter()
    for _ in range(ROUNDS):
        asyncio.run(async_evaluator.run(workload))
    async_per_round = (time.perf_counter() - start) / ROUNDS

    result = benchmark.pedantic(
        lambda: asyncio.run(async_evaluator.run(workload)),
        rounds=ROUNDS, iterations=1)
    assert _identical(result.answers, serial_answers)

    # Streamed-first-answer latency: only the first shard is evaluated.
    start = time.perf_counter()
    for _ in range(ROUNDS):
        asyncio.run(async_evaluator.first_answer(workload))
    first_per_round = (time.perf_counter() - start) / ROUNDS

    rows = [
        ("sync BatchEvaluator.run",
         f"{sync_per_round * 1e3:.3f}", "1.0x"),
        (f"asyncio AsyncBatchEvaluator.run ({N_DOCS} shards)",
         f"{async_per_round * 1e3:.3f}",
         f"{sync_per_round / async_per_round:.1f}x"),
        ("streamed FIRST answer",
         f"{first_per_round * 1e3:.3f}",
         f"{async_per_round / first_per_round:.1f}x sooner"),
    ]
    record_report(
        "SERVING-async facade + streamed first answer",
        format_table(
            ["path", "ms / round trip", "vs baseline"], rows,
            title=(f"async serving: one hypothesis over {N_DOCS} XMark "
                   f"documents x {ROUNDS} rounds")),
        metrics={"sync_ms": sync_per_round * 1e3,
                 "async_ms": async_per_round * 1e3,
                 "first_answer_ms": first_per_round * 1e3})

    return first_per_round, async_per_round


def test_async_round_trip_speed(benchmark):
    """The async rounds (the tier-1 smoke runner): reported, and checked
    only for what is deterministic — identical answers."""
    _async_round(benchmark)


def test_async_round_trip_speed_bound(benchmark):
    """The streamed-first-answer gate, asserted in CI's async step."""
    first_per_round, async_per_round = _async_round(benchmark)
    # The latency contract: the first streamed shard lands well before
    # the full batch would have (one shard of N => ~1/N of the work).
    assert first_per_round < async_per_round, (
        f"first streamed answer ({first_per_round * 1e3:.3f} ms) not "
        f"sooner than the full batch ({async_per_round * 1e3:.3f} ms)")


def test_tcp_round_trip_speed(benchmark):
    docs = _corpus()[:6]
    query = parse_twig(HYPOTHESIS)
    workload = Workload.twig(query, docs)
    local = BatchEvaluator(engine=Engine()).run(workload)

    with ServerThread(AsyncBatchEvaluator()) as server:
        with WorkloadClient(*server.address) as client:
            remote = client.run(workload)
            assert _identical(remote.answers, local.answers)

            start = time.perf_counter()
            for _ in range(ROUNDS):
                client.run(workload)
            remote_per_round = (time.perf_counter() - start) / ROUNDS

            result = benchmark.pedantic(
                lambda: client.run(workload), rounds=5, iterations=1)
            assert _identical(result.answers, local.answers)

    record_report(
        "SERVING-net TCP workload round trip",
        format_table(
            ["path", "ms / round trip"],
            [("local BatchEvaluator (reference)", "see async table"),
             ("TCP client -> server", f"{remote_per_round * 1e3:.3f}")],
            title=(f"network serving: {len(docs)} XMark documents over "
                   f"localhost x {ROUNDS} rounds")),
        metrics={"tcp_round_trip_ms": remote_per_round * 1e3})
